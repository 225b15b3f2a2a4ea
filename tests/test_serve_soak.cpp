// Daemon soak (ctest label: soak, also run under the TSan lane by
// scripts/run_sanitizers.sh): one in-process Server hammered by a squad
// of client threads mixing every request type — clean jobs, budget- and
// cancel-tripped victims, evictions, stats polls, malformed frames on
// sacrificial connections — for MS_SERVE_SOAK_SECONDS wall seconds
// (default 30; the env var trims it for quick local runs).
//
// Invariants held for the whole window:
//   - every reply decodes and pairs with its request id (the Client
//     enforces this; a transport failure on a non-sacrificial
//     connection fails the test),
//   - clean requests answer bit-identically to the solo baseline
//     (serve::divergence) no matter what the victims are doing,
//   - victims always come back with a valid (possibly partial)
//     matching and an expected status,
//   - the server survives to answer a final STATS and drains cleanly.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "gen/generators.hpp"
#include "serve/client.hpp"
#include "serve/diffcheck.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace matchsparse {
namespace {

using serve::Client;
using serve::ErrorCode;
using serve::FrameType;
using serve::JobRequest;
using serve::LoadRequest;
using serve::MatchReply;
using serve::Server;
using serve::ServerOptions;

double soak_seconds() {
  if (const char* env = std::getenv("MS_SERVE_SOAK_SECONDS")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 30.0;
}

JobRequest job_of(const std::string& source, std::uint64_t seed,
                  std::uint64_t threads) {
  JobRequest req;
  req.source = source;
  req.beta = 5;
  req.eps = 0.25;
  req.seed = seed;
  req.threads = threads;
  return req;
}

TEST(ServeSoak, MixedWorkloadUnderConcurrency) {
  ServerOptions opts;
  // Small cache: scratch-source churn and explicit EVICTs keep the LRU
  // moving without ever displacing the stable sources the clean
  // clients' baselines depend on.
  opts.cache_bytes = 8ull << 20;
  opts.max_inflight = 6;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // Two stable sources the clean clients rely on, loaded once.
  Rng graph_rng(0x50a7);
  const Graph g_a = gen::unit_disk(
      500, gen::unit_disk_radius_for_degree(500, 8.0), graph_rng);
  const Graph g_b = gen::unit_disk(
      300, gen::unit_disk_radius_for_degree(300, 6.0), graph_rng);
  {
    Client loader(server.connect_in_process());
    ASSERT_TRUE(loader.valid());
    LoadRequest load;
    load.source = "a";
    load.n = g_a.num_vertices();
    load.edges = g_a.edge_list();
    ASSERT_TRUE(loader.load(load).has_value());
    load.source = "b";
    load.n = g_b.num_vertices();
    load.edges = g_b.edge_list();
    ASSERT_TRUE(loader.load(load).has_value());
  }

  // Solo baselines per (source, seed, threads) cell the clean clients
  // will replay. Warm first so the baselines are hit replies.
  struct Cell {
    std::string source;
    JobRequest job;
    MatchReply solo;
  };
  std::vector<Cell> cells;
  {
    Client warm(server.connect_in_process());
    for (const auto& [src, seed, threads] :
         {std::tuple<const char*, std::uint64_t, std::uint64_t>{"a", 3, 1},
          {"a", 3, 2},
          {"b", 9, 1}}) {
      Cell cell;
      cell.source = src;
      cell.job = job_of(src, seed, threads);
      ASSERT_TRUE(warm.match(cell.job).has_value())
          << warm.last_error().message;
      const auto solo = warm.match(cell.job);
      ASSERT_TRUE(solo.has_value());
      cell.solo = *solo;
      cells.push_back(std::move(cell));
    }
  }

  const double budget_s = soak_seconds();
  std::atomic<bool> stop{false};
  std::vector<std::string> failures(8);
  std::atomic<std::uint64_t> clean_ok{0};
  std::atomic<std::uint64_t> shed_count{0};
  std::atomic<std::uint64_t> victim_trips{0};

  const auto fail = [&](int slot, std::string what) {
    failures[slot] = std::move(what);
    stop.store(true, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  // 3 clean clients replaying baseline cells. Shedding is an acceptable
  // answer under load; a divergent reply is not.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Client c(server.connect_in_process());
      if (!c.valid()) return fail(t, "connect failed");
      Rng rng(0xc1ea0 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const Cell& cell = cells[rng() % cells.size()];
        const auto rep = c.match(cell.job);
        if (!rep) {
          if (c.transport_failed()) return fail(t, "transport died");
          if (c.last_error().code == ErrorCode::kShed) {
            shed_count.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          return fail(t, "clean request refused: " + c.last_error().message);
        }
        if (const std::string d =
                serve::divergence(serve::signature_of(cell.solo),
                                  serve::signature_of(*rep));
            !d.empty()) {
          return fail(t, "clean reply diverged [" + cell.source + "]: " + d);
        }
        clean_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // 2 victim clients: cancel- and budget-tripped runs, cold and hot.
  for (int t = 3; t < 5; ++t) {
    threads.emplace_back([&, t] {
      Client c(server.connect_in_process());
      if (!c.valid()) return fail(t, "connect failed");
      Rng rng(0x7ec7 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        JobRequest job = job_of(rng() % 2 == 0 ? "a" : "b", rng() % 64, 1);
        std::optional<MatchReply> rep;
        if (rng() % 2 == 0) {
          job.cancel_after_polls = 1 + rng() % 50;
          rep = c.match(job);
          if (!rep) {
            if (c.transport_failed()) return fail(t, "transport died");
            if (c.last_error().code == ErrorCode::kShed) continue;
            return fail(t, "victim refused: " + c.last_error().message);
          }
          const auto status = static_cast<RunStatus>(rep->status);
          // A late trip point can land after the run completed.
          if (status != RunStatus::kCancelled && status != RunStatus::kOk) {
            return fail(t, "cancel victim status " +
                               std::string(to_string(status)));
          }
          if (status == RunStatus::kCancelled) {
            victim_trips.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          job.mem_budget_bytes = 1;
          rep = c.pipeline(job);
          if (!rep) {
            if (c.transport_failed()) return fail(t, "transport died");
            if (c.last_error().code == ErrorCode::kShed) continue;
            return fail(t, "victim refused: " + c.last_error().message);
          }
          if (static_cast<RunStatus>(rep->status) !=
              RunStatus::kDegradedMaximal) {
            return fail(t, "budget victim did not degrade");
          }
          victim_trips.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // 1 churn client: scratch loads, sparsifies, evictions, stats.
  threads.emplace_back([&] {
    Client c(server.connect_in_process());
    if (!c.valid()) return fail(5, "connect failed");
    Rng rng(0xc4u);
    while (!stop.load(std::memory_order_acquire)) {
      const std::string name = "scratch" + std::to_string(rng() % 3);
      Rng gr(rng());
      const VertexId n = 100 + static_cast<VertexId>(rng() % 200);
      const Graph g = gen::unit_disk(
          n, gen::unit_disk_radius_for_degree(n, 6.0), gr);
      LoadRequest load;
      load.source = name;
      load.n = g.num_vertices();
      load.edges = g.edge_list();
      if (!c.load(load)) {
        if (c.transport_failed()) return fail(5, "transport died");
        continue;  // draining or shedding
      }
      const auto sp = c.sparsify(job_of(name, rng() % 8, 1));
      if (!sp && c.transport_failed()) return fail(5, "transport died");
      if (rng() % 2 == 0 && !c.evict(name)) {
        if (c.transport_failed()) return fail(5, "transport died");
      }
      if (!c.stats()) return fail(5, "stats refused");
    }
  });
  // 1 saboteur: malformed frames on sacrificial connections. The drop
  // must never take the server (or anyone else's session) with it.
  threads.emplace_back([&] {
    Rng rng(0xbadu);
    while (!stop.load(std::memory_order_acquire)) {
      Client c(server.connect_in_process());
      if (!c.valid()) return fail(6, "connect failed");
      switch (rng() % 3) {
        case 0: {  // poisoned framing
          const std::uint8_t bad[4] = {8, 0, 0, 0};
          c.send_bytes(bad, sizeof(bad));
          break;
        }
        case 1: {  // unknown frame type
          Frame f;
          f.type = 0x55;
          f.request_id = rng();
          c.send_frame(f);
          break;
        }
        default: {  // truncated frame, then half-close
          const Frame f = serve::encode_empty(FrameType::kStats, rng());
          const std::vector<std::uint8_t> wire = encode_frame(f);
          c.send_bytes(wire.data(), std::min<std::size_t>(wire.size(), 6));
          // Without the half-close both sides would block forever: the
          // server wants the rest of the frame, we'd want a reply.
          ::shutdown(c.fd(), SHUT_WR);
          break;
        }
      }
      c.recv_frame();  // whatever the server says (or EOF) is fine
    }
  });
  // 1 stats poller doubling as the wall-clock governor.
  threads.emplace_back([&] {
    Client c(server.connect_in_process());
    if (!c.valid()) return fail(7, "connect failed");
    WallTimer timer;
    while (timer.seconds() < budget_s &&
           !stop.load(std::memory_order_acquire)) {
      if (!c.stats()) return fail(7, "stats refused");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_release);
  });

  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i], "") << "soak thread " << i;
  }
  EXPECT_GT(clean_ok.load(), 0u);
  EXPECT_GT(victim_trips.load(), 0u);

  // The server is still coherent: a fresh connection, a final stats,
  // and a clean shutdown drain.
  Client fin(server.connect_in_process());
  ASSERT_TRUE(fin.valid());
  const auto stats = fin.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->json.find("\"requests\":"), std::string::npos);
  EXPECT_TRUE(fin.shutdown());
  server.wait();
  server.stop();
}

}  // namespace
}  // namespace matchsparse
