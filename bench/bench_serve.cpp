// Daemon throughput/latency: sustained QPS x tail latency against a real
// in-process serve::Server (DESIGN.md §15), driven through the same
// serve::Client the tests use, so the full production path — frame
// codec, session threads, admission, cache, per-request RunContext —
// sits inside every measured request.
//
// Two workloads per client count (1/2/4/8 concurrent connections), both
// fault-free (no cancels, no budget clamps, a generous per-request
// deadline that a healthy server never approaches):
//   cold — PIPELINE requests: cache bypassed, every request pays the
//          full sparsify -> match build;
//   hot  — MATCH requests against a pre-warmed cache: every request is
//          a hit and pays only the matching stage.
//
// Gates (nonzero exit on violation, so CI can hold the line):
//   1. every reply is kOk with zero errors/sheds (the workload is
//      fault-free, so anything else is a server bug or an overrun
//      deadline surfacing as degradation);
//   2. p99 latency stays under the per-request deadline on every row;
//   3. hot p50 is measurably cheaper than cold p50 at every client
//      count (the cache is the daemon's reason to exist);
//   4. the telemetry plane (DESIGN.md §16) is hot-path cheap: with two
//      otherwise-identical servers — histograms/counters on vs off —
//      interleaved rounds of the hot MATCH workload must keep the
//      median of the per-round telemetry-on/off p50 ratios within
//      1.05x.
//
// A third section prices resilience (DESIGN.md §17): the hot MATCH
// workload again, but through serve::RetryingClient over seeded
// FaultTransports that reset the connection mid-anything at 0% / 1% /
// 5% per wire operation. Reported per rate: survivor p99 and goodput
// (completed logical requests per second). Gated: every survivor is
// bit-identical to the fault-free baseline, and the 0% row pays zero
// retries — the retry machinery is free when nothing fails.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "gen/generators.hpp"
#include "serve/client.hpp"
#include "serve/diffcheck.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

using serve::Client;
using serve::JobRequest;
using serve::LoadRequest;
using serve::Server;
using serve::ServerOptions;

constexpr std::uint64_t kSeed = 0x5e7ebe9c;
constexpr double kDeadlineMs = 5000.0;  // generous: a healthy p99 is ~10x
                                        // lower even at 8 clients per core

// beta = 1 keeps the matching stage to the cheap maximal rung, so on the
// dense workload graph the O(m) sparsifier build dominates a cold
// request — which is exactly the cost a cache hit is supposed to shed.
JobRequest job() {
  JobRequest req;
  req.source = "g";
  req.beta = 1;
  req.eps = 0.25;
  req.seed = 7;
  req.threads = 1;  // concurrency comes from connections, not lanes
  req.deadline_ms = kDeadlineMs;
  return req;
}

struct Percentiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Percentiles percentiles(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(ms.size()))) - 1;
    return ms[std::min(idx, ms.size() - 1)];
  };
  return {at(0.50), at(0.95), at(0.99)};
}

struct WorkloadResult {
  std::vector<double> latencies_ms;
  double wall_s = 0.0;
  std::uint64_t not_ok = 0;  // refused, transport-dead, or non-kOk status
};

struct ChaosResult {
  std::vector<double> survivor_ms;  // wall latency per completed logical
                                    // request, retries and backoff included
  double wall_s = 0.0;
  std::uint64_t survivors = 0;
  std::uint64_t giveups = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t mismatched = 0;  // survivors that diverged from baseline
};

/// The hot MATCH workload through RetryingClients whose every dial is
/// wrapped in a seeded FaultTransport resetting at `reset_rate` per
/// wire operation (plus light short-read fragmentation when faults are
/// on at all).
ChaosResult run_chaos_workload(Server& server, int clients, int per_client,
                               double reset_rate, std::uint64_t salt,
                               const serve::RunSignature& baseline) {
  ChaosResult result;
  std::mutex mu;
  std::atomic<std::uint64_t> dials{0};
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto connect = [&]() {
        serve::TransportFaultPlan plan;
        plan.seed = salt + dials.fetch_add(1);
        plan.reset = reset_rate;
        plan.short_io = reset_rate > 0.0 ? 0.05 : 0.0;
        auto inner = std::make_unique<serve::FdTransport>(
            server.connect_in_process());
        return Client(
            std::make_unique<serve::FaultTransport>(std::move(inner), plan));
      };
      serve::RetryPolicy policy;
      policy.max_attempts = 10;
      policy.base_backoff_ms = 0.5;
      policy.max_backoff_ms = 5.0;
      policy.io_timeout_ms = kDeadlineMs;
      policy.seed = salt + 1000 + static_cast<std::uint64_t>(c);
      serve::RetryingClient rc(std::move(connect), policy);

      std::vector<double> local;
      std::uint64_t ok = 0, bad = 0, diverged = 0;
      for (int r = 0; r < per_client; ++r) {
        WallTimer timer;
        const auto rep = rc.match(job());
        const double ms = timer.seconds() * 1e3;
        if (!rep.has_value()) {
          ++bad;
          continue;
        }
        ++ok;
        local.push_back(ms);
        if (!serve::divergence(baseline, serve::signature_of(*rep)).empty()) {
          ++diverged;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.survivor_ms.insert(result.survivor_ms.end(), local.begin(),
                                local.end());
      result.survivors += ok;
      result.giveups += bad;
      result.mismatched += diverged;
      result.retries += rc.retry_stats().retries;
      // The first dial per worker is connectivity, not recovery.
      result.reconnects += rc.retry_stats().reconnects > 0
                               ? rc.retry_stats().reconnects - 1
                               : 0;
    });
  }
  for (auto& t : threads) t.join();
  result.wall_s = wall.seconds();
  return result;
}

/// `clients` connections each fire `per_client` back-to-back requests of
/// one kind; per-request wall latency lands in the shared vector.
WorkloadResult run_workload(Server& server, int clients, int per_client,
                            bool cold) {
  WorkloadResult result;
  std::mutex mu;
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      Client client(server.connect_in_process());
      std::vector<double> local;
      std::uint64_t bad = 0;
      local.reserve(static_cast<std::size_t>(per_client));
      for (int r = 0; r < per_client; ++r) {
        WallTimer timer;
        const auto rep = cold ? client.pipeline(job()) : client.match(job());
        local.push_back(timer.seconds() * 1e3);
        if (!rep || static_cast<RunStatus>(rep->status) != RunStatus::kOk) {
          ++bad;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_ms.insert(result.latencies_ms.end(), local.begin(),
                                 local.end());
      result.not_ok += bad;
    });
  }
  for (auto& t : threads) t.join();
  result.wall_s = wall.seconds();
  return result;
}

}  // namespace
}  // namespace matchsparse

int main() {
  using namespace matchsparse;
  using namespace matchsparse::bench;

  banner("serve QPS x tail latency",
         "cached sparsifiers make hot requests measurably cheaper than "
         "cold, and the no-fault p99 stays under the request deadline");
  JsonlSink sink("serve");
  sink.set_seed(kSeed);

  ServerOptions opts;
  // This bench prices latency, not admission: the default inflight cap
  // equals the widest client sweep, and a slot is released only after
  // its reply is on the wire, so back-to-back senders would see
  // spurious sheds at 8 clients. Uncap it.
  opts.max_inflight = 0;
  Server server(opts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "server start failed: %s\n", err.c_str());
    return 1;
  }

  Rng rng(kSeed);
  const VertexId n = 10000;
  const Graph g =
      gen::unit_disk(n, gen::unit_disk_radius_for_degree(n, 64.0), rng);
  {
    Client loader(server.connect_in_process());
    LoadRequest load;
    load.source = "g";
    load.n = g.num_vertices();
    load.edges = g.edge_list();
    if (!loader.load(load).has_value()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loader.last_error().message.c_str());
      return 1;
    }
    // Warm the (seed, threads) lane the hot workload replays, so every
    // hot request below is a cache hit.
    if (!loader.sparsify(job()).has_value()) {
      std::fprintf(stderr, "warm sparsify failed: %s\n",
                   loader.last_error().message.c_str());
      return 1;
    }
  }

  Table table("serve QPS x tail latency (fault-free workloads)",
              {"mode", "clients", "requests", "qps", "p50_ms", "p95_ms",
               "p99_ms", "not_ok"});
  bool gates_ok = true;
  std::vector<double> cold_p50(9, 0.0);

  for (const bool cold : {true, false}) {
    for (const int clients : {1, 2, 4, 8}) {
      // Cold requests pay a full build, so fewer of them saturate the
      // same wall budget.
      const int per_client = cold ? 10 : 150;
      const auto res = run_workload(server, clients, per_client, cold);
      const auto p = percentiles(res.latencies_ms);
      const double qps =
          static_cast<double>(res.latencies_ms.size()) / res.wall_s;
      const char* mode = cold ? "cold" : "hot";
      table.row()
          .cell(mode)
          .cell(clients)
          .cell(static_cast<std::uint64_t>(res.latencies_ms.size()))
          .cell(qps)
          .cell(p.p50)
          .cell(p.p95)
          .cell(p.p99)
          .cell(res.not_ok);
      JsonRow row;
      row.str("bench", "serve")
          .str("mode", mode)
          .num("clients", static_cast<std::uint64_t>(clients))
          .num("n", static_cast<std::uint64_t>(n))
          .num("m", static_cast<std::uint64_t>(g.num_edges()))
          .num("requests",
               static_cast<std::uint64_t>(res.latencies_ms.size()))
          .num("qps", qps)
          .num("p50_ms", p.p50)
          .num("p95_ms", p.p95)
          .num("p99_ms", p.p99)
          .num("deadline_ms", kDeadlineMs)
          .num("not_ok", res.not_ok);
      sink.row(row);

      if (res.not_ok != 0) {
        std::fprintf(stderr, "GATE: %s/%d clients: %llu non-kOk replies on "
                             "the no-fault workload\n",
                     mode, clients,
                     static_cast<unsigned long long>(res.not_ok));
        gates_ok = false;
      }
      if (p.p99 > kDeadlineMs) {
        std::fprintf(stderr, "GATE: %s/%d clients: p99 %.2f ms exceeds the "
                             "per-request deadline %.0f ms\n",
                     mode, clients, p.p99, kDeadlineMs);
        gates_ok = false;
      }
      if (cold) {
        cold_p50[static_cast<std::size_t>(clients)] = p.p50;
      } else if (!(p.p50 < 0.8 * cold_p50[static_cast<std::size_t>(clients)])) {
        std::fprintf(stderr, "GATE: %d clients: hot p50 %.2f ms is not "
                             "measurably cheaper than cold p50 %.2f ms\n",
                     clients, p.p50,
                     cold_p50[static_cast<std::size_t>(clients)]);
        gates_ok = false;
      }
    }
  }
  table.print();

  // -------------------------------------------------------------------
  // Telemetry overhead: the same hot MATCH workload against a second,
  // telemetry-off server, interleaved round for round so machine drift
  // hits both sides of a round alike. The gate takes the median of the
  // per-round on/off p50 ratios. Each side's minimum p50 over the rounds
  // would compare the two sides' fastest rounds, low outliers that may
  // come from different stretches of the machine's drift, and more
  // rounds make those outliers more extreme, not steadier.
  ServerOptions off_opts = opts;
  off_opts.telemetry = false;
  Server server_off(off_opts);
  if (!server_off.start(&err)) {
    std::fprintf(stderr, "telemetry-off server start failed: %s\n",
                 err.c_str());
    return 1;
  }
  {
    Client loader(server_off.connect_in_process());
    LoadRequest load;
    load.source = "g";
    load.n = g.num_vertices();
    load.edges = g.edge_list();
    if (!loader.load(load).has_value() ||
        !loader.sparsify(job()).has_value()) {
      std::fprintf(stderr, "telemetry-off warmup failed: %s\n",
                   loader.last_error().message.c_str());
      return 1;
    }
  }

  constexpr int kOverheadRounds = 30;
  constexpr int kOverheadRequests = 200;
  std::vector<double> on_p50s, off_p50s, round_ratios;
  std::uint64_t overhead_bad = 0;
  for (int round = 0; round < kOverheadRounds; ++round) {
    for (const bool telemetry_on : {true, false}) {
      Server& target = telemetry_on ? server : server_off;
      const auto res = run_workload(target, 1, kOverheadRequests,
                                    /*cold=*/false);
      overhead_bad += res.not_ok;
      (telemetry_on ? on_p50s : off_p50s)
          .push_back(percentiles(res.latencies_ms).p50);
    }
    round_ratios.push_back(on_p50s.back() / off_p50s.back());
  }
  const double on_p50 = median(on_p50s);
  const double off_p50 = median(off_p50s);
  const double overhead_ratio = median(round_ratios);
  Table overhead("telemetry overhead (hot MATCH, median of per-round p50s "
                 "and of their on/off ratios)",
                 {"telemetry", "p50_ms", "ratio"});
  overhead.row().cell("off").cell(off_p50).cell(1.0);
  overhead.row().cell("on").cell(on_p50).cell(overhead_ratio);
  overhead.print();
  {
    JsonRow row;
    row.str("bench", "serve")
        .str("mode", "telemetry-overhead")
        .num("rounds", static_cast<std::uint64_t>(kOverheadRounds))
        .num("requests_per_round",
             static_cast<std::uint64_t>(kOverheadRequests))
        .num("p50_ms_telemetry_on", on_p50)
        .num("p50_ms_telemetry_off", off_p50)
        .num("ratio", overhead_ratio)
        .num("not_ok", overhead_bad);
    sink.row(row);
  }
  if (overhead_bad != 0) {
    std::fprintf(stderr, "GATE: telemetry-overhead rounds saw %llu non-kOk "
                         "replies on the no-fault workload\n",
                 static_cast<unsigned long long>(overhead_bad));
    gates_ok = false;
  }
  if (overhead_ratio > 1.05) {
    std::fprintf(stderr, "GATE: telemetry-on hot p50 is %.3fx the "
                         "telemetry-off p50 (median of %d rounds' ratios; "
                         "median p50s %.4f vs %.4f ms; cap 1.05x)\n",
                 overhead_ratio, kOverheadRounds, on_p50, off_p50);
    gates_ok = false;
  }
  server_off.stop();

  // -------------------------------------------------------------------
  // Resilience pricing (DESIGN.md §17): hot MATCH through RetryingClient
  // at injected connection-reset rates. A dedicated server keeps the
  // torn-frame errors this provokes out of the fault-free gate above.
  Server chaos_server(opts);
  if (!chaos_server.start(&err)) {
    std::fprintf(stderr, "chaos server start failed: %s\n", err.c_str());
    return 1;
  }
  serve::RunSignature chaos_baseline;
  {
    Client loader(chaos_server.connect_in_process());
    LoadRequest load;
    load.source = "g";
    load.n = g.num_vertices();
    load.edges = g.edge_list();
    if (!loader.load(load).has_value() ||
        !loader.sparsify(job()).has_value()) {
      std::fprintf(stderr, "chaos warmup failed: %s\n",
                   loader.last_error().message.c_str());
      return 1;
    }
    const auto solo = loader.match(job());
    if (!solo.has_value()) {
      std::fprintf(stderr, "chaos baseline failed: %s\n",
                   loader.last_error().message.c_str());
      return 1;
    }
    chaos_baseline = serve::signature_of(*solo);
  }

  Table chaos_table(
      "resilience under injected resets (hot MATCH via RetryingClient)",
      {"reset_rate", "clients", "survivors", "giveups", "retries",
       "reconnects", "p99_ms", "goodput_qps"});
  constexpr int kChaosClients = 4;
  constexpr int kChaosPerClient = 100;
  for (const double rate : {0.0, 0.01, 0.05}) {
    const auto res = run_chaos_workload(
        chaos_server, kChaosClients, kChaosPerClient, rate,
        kSeed ^ static_cast<std::uint64_t>(rate * 1e4), chaos_baseline);
    const double p99 = res.survivor_ms.empty()
                           ? 0.0
                           : percentiles(res.survivor_ms).p99;
    const double goodput =
        static_cast<double>(res.survivors) / res.wall_s;
    chaos_table.row()
        .cell(rate, 2)
        .cell(kChaosClients)
        .cell(res.survivors)
        .cell(res.giveups)
        .cell(res.retries)
        .cell(res.reconnects)
        .cell(p99)
        .cell(goodput);
    JsonRow row;
    row.str("bench", "serve")
        .str("mode", "chaos")
        .num("reset_rate", rate)
        .num("clients", static_cast<std::uint64_t>(kChaosClients))
        .num("requests",
             static_cast<std::uint64_t>(kChaosClients * kChaosPerClient))
        .num("survivors", res.survivors)
        .num("giveups", res.giveups)
        .num("retries", res.retries)
        .num("reconnects", res.reconnects)
        .num("p99_ms", p99)
        .num("goodput_qps", goodput)
        .num("mismatched", res.mismatched);
    sink.row(row);

    // Gates: survivors are bit-identical to the fault-free baseline at
    // every rate, and the machinery is free when nothing fails.
    if (res.mismatched != 0) {
      std::fprintf(stderr, "GATE: chaos rate %.2f: %llu survivors diverged "
                           "from the fault-free baseline\n",
                   rate, static_cast<unsigned long long>(res.mismatched));
      gates_ok = false;
    }
    if (res.survivors == 0) {
      std::fprintf(stderr, "GATE: chaos rate %.2f: nothing survived\n", rate);
      gates_ok = false;
    }
    if (rate == 0.0 && (res.retries != 0 || res.giveups != 0)) {
      std::fprintf(stderr, "GATE: fault-free retry workload paid %llu "
                           "retries / %llu giveups\n",
                   static_cast<unsigned long long>(res.retries),
                   static_cast<unsigned long long>(res.giveups));
      gates_ok = false;
    }
  }
  chaos_table.print();
  chaos_server.stop();

  const serve::ServeTelemetry& t = server.telemetry_plane();
  const std::uint64_t errors = t.value(serve::ServeCounter::kErrors);
  const std::uint64_t shed = t.value(serve::ServeCounter::kShed);
  if (errors != 0 || shed != 0) {
    std::fprintf(stderr, "GATE: server refused work on the no-fault "
                         "workload (errors=%llu shed=%llu)\n",
                 static_cast<unsigned long long>(errors),
                 static_cast<unsigned long long>(shed));
    gates_ok = false;
  }
  std::printf("\nserve bench gates: %s\n", gates_ok ? "OK" : "FAILED");
  return gates_ok ? 0 : 1;
}
