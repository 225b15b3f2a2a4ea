// Seeded chaos soak for the serve resilience layer (DESIGN.md §17;
// ctest label: soak, run under the TSan lane by
// scripts/run_sanitizers.sh). Faults are injected on BOTH sides of
// every connection — seeded FaultTransports short-read, stall, and
// reset client dials, while ServerOptions::transport_wrapper does the
// same to every session the server accepts — and every worker drives
// its traffic through a RetryingClient.
//
// Invariants held for the whole window:
//   - every logical request that survives its retry budget answers
//     bit-identically (serve::divergence) to the fault-free baseline
//     captured before the chaos started,
//   - a failed logical request failed for an honest reason: transport
//     death that outlived the budget, or a retryable refusal — never a
//     protocol error, never a wrong answer,
//   - the server's ledgers drain: inflight returns to zero, every
//     session joins, and a fresh clean connection gets a coherent STATS
//     and a clean shutdown after the storm.
//
// MS_SERVE_CHAOS_SECONDS overrides the window (default 20).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "serve/client.hpp"
#include "serve/diffcheck.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace matchsparse {
namespace {

using serve::Client;
using serve::ErrorCode;
using serve::FaultTransport;
using serve::FdTransport;
using serve::JobRequest;
using serve::LoadRequest;
using serve::MatchReply;
using serve::RetryingClient;
using serve::RetryPolicy;
using serve::ServeCounter;
using serve::Server;
using serve::ServerOptions;
using serve::Transport;
using serve::TransportFaultPlan;

double chaos_seconds() {
  if (const char* env = std::getenv("MS_SERVE_CHAOS_SECONDS")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 20.0;
}

JobRequest job_of(const std::string& source, std::uint64_t seed) {
  JobRequest req;
  req.source = source;
  req.beta = 5;
  req.eps = 0.25;
  req.seed = seed;
  return req;
}

TEST(ServeChaos, SurvivorsAreBitIdenticalAndLedgersDrain) {
  ServerOptions opts;
  opts.cache_bytes = 32ull << 20;
  opts.max_inflight = 4;          // some honest sheds under the storm
  opts.shed_retry_after_ms = 2.0;
  opts.session_idle_timeout_ms = 2000.0;   // reap half-open casualties
  opts.session_write_timeout_ms = 2000.0;  // never wedge on a dead peer
  // Server-side chaos: every accepted session reads and writes through
  // its own seeded FaultTransport.
  std::atomic<std::uint64_t> session_seq{0};
  opts.transport_wrapper = [&](std::unique_ptr<Transport> inner) {
    TransportFaultPlan plan;
    plan.seed = 0x5eede0 + session_seq.fetch_add(1);
    plan.short_io = 0.10;
    plan.stall = 0.002;
    plan.stall_ms = 1.0;
    plan.reset = 0.0005;  // sessions die mid-anything, now and then
    return std::make_unique<FaultTransport>(std::move(inner), plan);
  };
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // Stable sources and their fault-free baselines, captured over clean
  // (unwrapped client side; the server side is already chaotic, but a
  // load/match either completes identically or fails visibly).
  Rng graph_rng(0xc4a05);
  const Graph g_a = gen::unit_disk(
      500, gen::unit_disk_radius_for_degree(500, 8.0), graph_rng);
  const Graph g_b = gen::unit_disk(
      300, gen::unit_disk_radius_for_degree(300, 6.0), graph_rng);

  struct Cell {
    JobRequest job;
    serve::RunSignature baseline;
  };
  std::vector<Cell> cells;
  {
    RetryPolicy warm_policy;
    warm_policy.max_attempts = 50;
    warm_policy.base_backoff_ms = 1.0;
    warm_policy.io_timeout_ms = 5000.0;
    RetryingClient warm(
        [&]() { return Client(server.connect_in_process()); }, warm_policy);
    LoadRequest load;
    load.source = "a";
    load.n = g_a.num_vertices();
    load.edges = g_a.edge_list();
    ASSERT_TRUE(warm.load(load).has_value()) << warm.last_error().message;
    load.source = "b";
    load.n = g_b.num_vertices();
    load.edges = g_b.edge_list();
    ASSERT_TRUE(warm.load(load).has_value()) << warm.last_error().message;
    for (const auto& [src, seed] :
         {std::pair<const char*, std::uint64_t>{"a", 3},
          {"a", 5},
          {"b", 9}}) {
      Cell cell;
      cell.job = job_of(src, seed);
      const auto solo = warm.match(cell.job);
      ASSERT_TRUE(solo.has_value()) << warm.last_error().message;
      cell.baseline = serve::signature_of(*solo);
      cells.push_back(std::move(cell));
    }
  }

  const double budget_s = chaos_seconds();
  constexpr int kWorkers = 6;
  std::atomic<bool> stop{false};
  std::vector<std::string> failures(kWorkers);
  std::atomic<std::uint64_t> survivors{0};
  std::atomic<std::uint64_t> giveups{0};
  std::atomic<std::uint64_t> dials{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      // Client-side chaos: every dial gets its own seeded fault plan.
      auto connect = [&]() {
        TransportFaultPlan plan;
        plan.seed = 0xd1a1 + dials.fetch_add(1);
        plan.short_io = 0.10;
        plan.stall = 0.002;
        plan.stall_ms = 1.0;
        plan.reset = 0.0005;
        auto inner =
            std::make_unique<FdTransport>(server.connect_in_process());
        return Client(
            std::make_unique<FaultTransport>(std::move(inner), plan));
      };
      RetryPolicy policy;
      policy.max_attempts = 8;
      policy.base_backoff_ms = 1.0;
      policy.max_backoff_ms = 20.0;
      policy.io_timeout_ms = 2000.0;
      policy.seed = 0xbeef00 + static_cast<std::uint64_t>(w);
      RetryingClient rc(std::move(connect), policy);

      Rng rng(0x30b + static_cast<std::uint64_t>(w));
      while (!stop.load(std::memory_order_acquire)) {
        const Cell& cell = cells[rng() % cells.size()];
        const auto rep = rng() % 8 == 0 ? rc.pipeline(cell.job)
                                        : rc.match(cell.job);
        if (!rep.has_value()) {
          // Out of budget is honest under chaos; a protocol-level
          // refusal or a wrong answer is not.
          const ErrorCode code = rc.last_error().code;
          if (code != ErrorCode::kInternal && code != ErrorCode::kShed &&
              code != ErrorCode::kShuttingDown) {
            failures[w] = "hard refusal: " + rc.last_error().message;
            stop.store(true, std::memory_order_release);
            return;
          }
          giveups.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (const std::string d = serve::divergence(
                cell.baseline, serve::signature_of(*rep));
            !d.empty()) {
          failures[w] = "survivor diverged from fault-free baseline: " + d;
          stop.store(true, std::memory_order_release);
          return;
        }
        survivors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Wall-clock governor.
  WallTimer timer;
  while (timer.seconds() < budget_s &&
         !stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : workers) th.join();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(failures[w], "") << "chaos worker " << w;
  }
  EXPECT_GT(survivors.load(), 0u) << "no request ever survived the storm";

  // The ledgers drain: no job stays inflight once the storm stops.
  bool drained = false;
  for (int i = 0; i < 20000 && !drained; ++i) {
    drained = server.inflight() == 0;
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(drained) << "inflight ledger never returned to zero";

  // Retries really happened and dedup really replayed — the storm was a
  // storm (with seeded plans this is deterministic enough to assert).
  const serve::ServeTelemetry& t = server.telemetry_plane();
  EXPECT_GT(t.value(ServeCounter::kJobsExecuted), 0u);
  RecordProperty("survivors", static_cast<int>(survivors.load()));
  RecordProperty("giveups", static_cast<int>(giveups.load()));
  RecordProperty("dedup_replays",
                 static_cast<int>(t.value(ServeCounter::kDedupReplays)));
  RecordProperty("dedup_waits",
                 static_cast<int>(t.value(ServeCounter::kDedupWaits)));
  RecordProperty("sessions_reaped",
                 static_cast<int>(t.value(ServeCounter::kSessionsReaped)));

  // A clean connection still gets a coherent answer, then a clean
  // drain: stop() joining every session thread is itself the session-
  // ledger assertion (a leaked session would hang the test).
  Client fin(server.connect_in_process());
  ASSERT_TRUE(fin.valid());
  const auto stats = fin.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->json.find("\"jobs_executed\":"), std::string::npos);
  EXPECT_TRUE(fin.shutdown());
  server.wait();
  server.stop();
  EXPECT_EQ(server.inflight(), 0u);
}

}  // namespace
}  // namespace matchsparse
