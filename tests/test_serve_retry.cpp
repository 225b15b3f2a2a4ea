// The resilience layer of the serve plane (DESIGN.md §17), end to end
// over in-process connections:
//
//   - Client per-operation deadlines: a stalled peer surfaces as a typed
//     kTimeout instead of wedging the caller forever,
//   - the idempotency-token dedup window: a retried job — even one that
//     races the original on another connection — executes exactly once,
//   - RetryingClient: reconnect after transport death, backoff floored
//     by the server's retry-after hint, permanent refusals surfacing
//     immediately, bounded give-up,
//   - the idle-session reaper dropping silent connections.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "gen/generators.hpp"
#include "serve/client.hpp"
#include "serve/diffcheck.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace matchsparse {
namespace {

using serve::Client;
using serve::ErrorCode;
using serve::FaultTransport;
using serve::FdTransport;
using serve::FrameType;
using serve::IoStatus;
using serve::JobRequest;
using serve::LoadRequest;
using serve::RetryingClient;
using serve::RetryPolicy;
using serve::ServeCounter;
using serve::Server;
using serve::ServerOptions;
using serve::TransportFaultPlan;

Graph disk_graph(VertexId n, std::uint64_t seed, double avg_deg = 8.0) {
  Rng rng(seed);
  return gen::unit_disk(n, gen::unit_disk_radius_for_degree(n, avg_deg), rng);
}

LoadRequest load_of(const std::string& source, const Graph& g) {
  LoadRequest req;
  req.source = source;
  req.n = g.num_vertices();
  req.edges = g.edge_list();
  return req;
}

JobRequest job_of(const std::string& source, std::uint64_t seed = 11) {
  JobRequest req;
  req.source = source;
  req.beta = 5;
  req.eps = 0.25;
  req.seed = seed;
  return req;
}

// ---------------------------------------------------------------------------
// Protocol rev 2: the idempotency token on the wire.
// ---------------------------------------------------------------------------

TEST(ServeToken, TokenRoundTripsAndZeroKeepsTheRevOneLayout) {
  JobRequest req = job_of("g", 3);
  const Frame rev1 = serve::encode(FrameType::kMatch, req, 9);
  req.client_token = 0xfeedfacecafebeefull;
  const Frame rev2 = serve::encode(FrameType::kMatch, req, 9);
  // The token is a trailing u64, present only when nonzero — a rev-1
  // decoder never sees it for legacy clients.
  EXPECT_EQ(rev2.payload.size(), rev1.payload.size() + 8);

  const auto back = serve::decode_job({rev2.payload.data(),
                                       rev2.payload.size()});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->client_token, 0xfeedfacecafebeefull);
  const auto legacy = serve::decode_job({rev1.payload.data(),
                                         rev1.payload.size()});
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->client_token, 0u);

  // A partial trailing token (truncation inside the u64) is a torn
  // payload, not a legacy frame.
  for (std::size_t cut = 1; cut < 8; ++cut) {
    EXPECT_FALSE(serve::decode_job({rev2.payload.data(),
                                    rev2.payload.size() - cut})
                     .has_value())
        << "cut " << cut;
  }
}

TEST(ServeToken, ErrorReplyCarriesRetryAfterAndAcceptsTheOldLayout) {
  serve::ErrorReply err;
  err.code = ErrorCode::kShed;
  err.message = "busy";
  err.retry_after_ms = 12.5;
  const Frame f = serve::encode_error(err, 1);
  const auto back =
      serve::decode_error_reply({f.payload.data(), f.payload.size()});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->retry_after_ms, 12.5);
  // A rev-1 error reply (no trailing hint) still decodes, hint 0.
  const auto legacy = serve::decode_error_reply(
      {f.payload.data(), f.payload.size() - 8});
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->retry_after_ms, 0.0);
  EXPECT_EQ(legacy->message, "busy");
}

// ---------------------------------------------------------------------------
// Satellite: the client deadline. A peer that accepts the request and
// then goes silent used to wedge the client in recv() forever.
// ---------------------------------------------------------------------------

TEST(ServeClientDeadline, StalledPeerSurfacesAsTypedTimeout) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Client c(fds[0]);  // fds[1] is a peer that never answers
  c.set_io_timeout_ms(50.0);
  const WallTimer wall;
  EXPECT_FALSE(c.stats().has_value());
  EXPECT_TRUE(c.transport_failed());
  EXPECT_EQ(c.transport_status(), IoStatus::kTimeout);
  // It waited the deadline out, not five minutes and not zero.
  EXPECT_GE(wall.seconds(), 0.04);
  EXPECT_LT(wall.seconds(), 5.0);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// The dedup window: exactly-once effects for retried tokens.
// ---------------------------------------------------------------------------

class ServeDedup : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<Server>(ServerOptions{});
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }

  Client client() { return Client(server_->connect_in_process()); }

  std::unique_ptr<Server> server_;
};

TEST_F(ServeDedup, RetriedTokenReplaysInsteadOfReexecuting) {
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", disk_graph(400, 0xd1))).has_value());

  JobRequest job = job_of("g");
  job.client_token = 42;
  const auto first = c.match(job);
  ASSERT_TRUE(first.has_value()) << c.last_error().message;
  EXPECT_EQ(server_->telemetry_plane().value(ServeCounter::kJobsExecuted), 1u);

  // Same token again — even from a different connection — is a replay
  // of the stored reply, not a second execution (a cache hit would also
  // be bit-identical here; jobs_executed is the discriminator).
  Client retry = client();
  const auto second = retry.match(job);
  ASSERT_TRUE(second.has_value()) << retry.last_error().message;
  EXPECT_EQ(server_->telemetry_plane().value(ServeCounter::kJobsExecuted), 1u);
  EXPECT_EQ(server_->telemetry_plane().value(ServeCounter::kDedupReplays), 1u);
  EXPECT_EQ(serve::divergence(serve::signature_of(*first),
                              serve::signature_of(*second)),
            "");
  EXPECT_EQ(second->server_serial, first->server_serial);
}

TEST_F(ServeDedup, ConcurrentSameTokenOnTwoConnectionsExecutesOnce) {
  Client a = client();
  Client b = client();
  // Big enough that the original is plausibly still executing when the
  // duplicate arrives; the assertion below holds either way (wait path
  // or replay path), so the test cannot flake on timing.
  ASSERT_TRUE(a.load(load_of("g", disk_graph(20000, 0xd2))).has_value());

  JobRequest job = job_of("g");
  job.client_token = 77;
  ASSERT_TRUE(a.send_frame(serve::encode(FrameType::kMatch, job, 1)));
  ASSERT_TRUE(b.send_frame(serve::encode(FrameType::kMatch, job, 2)));

  const auto fa = a.recv_frame();
  const auto fb = b.recv_frame();
  ASSERT_TRUE(fa.has_value());
  ASSERT_TRUE(fb.has_value());
  ASSERT_EQ(fa->type, serve::reply(FrameType::kMatch));
  ASSERT_EQ(fb->type, serve::reply(FrameType::kMatch));
  // Replays are re-stamped with the retry's own request id.
  EXPECT_EQ(fa->request_id, 1u);
  EXPECT_EQ(fb->request_id, 2u);

  const auto ra =
      serve::decode_match_reply({fa->payload.data(), fa->payload.size()});
  const auto rb =
      serve::decode_match_reply({fb->payload.data(), fb->payload.size()});
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(serve::divergence(serve::signature_of(*ra),
                              serve::signature_of(*rb)),
            "");

  const serve::ServeTelemetry& t = server_->telemetry_plane();
  EXPECT_EQ(t.value(ServeCounter::kJobsExecuted), 1u);
  EXPECT_GE(t.value(ServeCounter::kDedupWaits) +
                t.value(ServeCounter::kDedupReplays),
            1u);
}

TEST_F(ServeDedup, RefusedAttemptAbortsTheTokenSoARetryStartsFresh) {
  Client c = client();
  JobRequest job = job_of("nope");
  job.client_token = 9;
  // The first attempt is refused (unknown graph) before execution; the
  // token entry must not pin that refusal.
  EXPECT_FALSE(c.match(job).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kUnknownGraph);
  EXPECT_EQ(server_->telemetry_plane().value(ServeCounter::kJobsExecuted), 0u);

  ASSERT_TRUE(c.load(load_of("nope", disk_graph(300, 0xd3))).has_value());
  const auto rep = c.match(job);
  ASSERT_TRUE(rep.has_value()) << c.last_error().message;
  EXPECT_EQ(server_->telemetry_plane().value(ServeCounter::kJobsExecuted), 1u);
}

TEST(ServeDedupWindow, EvictsLeastRecentlyCompletedToken) {
  ServerOptions opts;
  opts.dedup_window = 2;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client c(server.connect_in_process());
  ASSERT_TRUE(c.load(load_of("g", disk_graph(300, 0xd4))).has_value());

  for (std::uint64_t token = 1; token <= 3; ++token) {
    JobRequest job = job_of("g", /*seed=*/token);
    job.client_token = token;
    ASSERT_TRUE(c.match(job).has_value());
  }
  EXPECT_EQ(server.telemetry_plane().value(ServeCounter::kJobsExecuted), 3u);

  // Token 1 fell out of the two-deep window: it executes again. Token 3
  // is still resident: replayed.
  JobRequest again1 = job_of("g", 1);
  again1.client_token = 1;
  ASSERT_TRUE(c.match(again1).has_value());
  EXPECT_EQ(server.telemetry_plane().value(ServeCounter::kJobsExecuted), 4u);
  JobRequest again3 = job_of("g", 3);
  again3.client_token = 3;
  ASSERT_TRUE(c.match(again3).has_value());
  EXPECT_EQ(server.telemetry_plane().value(ServeCounter::kJobsExecuted), 4u);
  EXPECT_EQ(server.telemetry_plane().value(ServeCounter::kDedupReplays), 1u);
}

TEST(ServeDedupWindow, ZeroWindowDisablesTokensEntirely) {
  ServerOptions opts;
  opts.dedup_window = 0;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client c(server.connect_in_process());
  ASSERT_TRUE(c.load(load_of("g", disk_graph(300, 0xd5))).has_value());
  JobRequest job = job_of("g");
  job.client_token = 5;
  ASSERT_TRUE(c.match(job).has_value());
  ASSERT_TRUE(c.match(job).has_value());
  EXPECT_EQ(server.telemetry_plane().value(ServeCounter::kJobsExecuted), 2u);
  EXPECT_EQ(server.telemetry_plane().value(ServeCounter::kDedupReplays), 0u);
}

// ---------------------------------------------------------------------------
// RetryingClient.
// ---------------------------------------------------------------------------

TEST(ServeRetryingClient, ReconnectsAfterMidReplyResetAndGetsAReplayNotARerun) {
  Server server(ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  {
    Client loader(server.connect_in_process());
    ASSERT_TRUE(loader.load(load_of("g", disk_graph(500, 0xe1))).has_value());
  }

  // The MATCH frame's wire length is independent of the request id and
  // token values (both fixed-size), so the fault schedule can cut the
  // stream a few bytes into the reply: the request lands whole, the
  // reply is torn.
  JobRequest probe = job_of("g");
  probe.client_token = 1;  // any nonzero: sizes the rev-2 layout
  const std::uint64_t wire_len =
      kFrameOverheadBytes + kFrameLengthBytes +
      serve::encode(FrameType::kMatch, probe, 0).payload.size();

  std::atomic<int> dials{0};
  auto connect = [&]() {
    auto inner = std::make_unique<FdTransport>(server.connect_in_process());
    if (dials.fetch_add(1) == 0) {
      TransportFaultPlan plan;
      plan.reset_after_bytes = wire_len + 4;
      return Client(std::make_unique<FaultTransport>(std::move(inner), plan));
    }
    return Client(std::move(inner));
  };

  RetryPolicy policy;
  policy.base_backoff_ms = 1.0;
  policy.max_backoff_ms = 5.0;
  RetryingClient rc(std::move(connect), policy);
  const auto rep = rc.match(job_of("g"));
  ASSERT_TRUE(rep.has_value()) << rc.last_error().message;

  // The first attempt executed the job and published the reply before
  // the cut; the retry on the fresh connection replayed it.
  EXPECT_EQ(server.telemetry_plane().value(ServeCounter::kJobsExecuted), 1u);
  EXPECT_EQ(server.telemetry_plane().value(ServeCounter::kDedupReplays), 1u);
  EXPECT_EQ(rc.retry_stats().attempts, 2u);
  EXPECT_EQ(rc.retry_stats().retries, 1u);
  EXPECT_EQ(rc.retry_stats().reconnects, 2u);
  EXPECT_EQ(rc.retry_stats().giveups, 0u);

  // And the replay is the one true answer: a plain (tokenless) request
  // for the same job serves the identical cached result.
  Client direct(server.connect_in_process());
  const auto fresh = direct.match(job_of("g"));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(serve::divergence(serve::signature_of(*rep),
                              serve::signature_of(*fresh)),
            "");
}

TEST(ServeRetryingClient, ShedIsRetriedAndTheBackoffHonorsTheServerHint) {
  ServerOptions opts;
  opts.max_inflight = 1;
  opts.shed_retry_after_ms = 40.0;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client occupier(server.connect_in_process());
  ASSERT_TRUE(
      occupier.load(load_of("big", disk_graph(120000, 0xe2))).has_value());
  Client aux(server.connect_in_process());
  ASSERT_TRUE(aux.load(load_of("small", disk_graph(64, 0xe3))).has_value());

  // Hold the single slot (the InflightCapShedsConcurrentJobs idiom).
  ASSERT_TRUE(occupier.send_frame(
      serve::encode(FrameType::kPipeline, job_of("big"), 77)));
  bool inflight_seen = false;
  for (int i = 0; i < 20000 && !inflight_seen; ++i) {
    inflight_seen = server.inflight() > 0;
    if (!inflight_seen) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(inflight_seen) << "occupier was never admitted";

  // A plain probe sees the typed hint on the refusal...
  Client prober(server.connect_in_process());
  ASSERT_FALSE(prober.match(job_of("small")).has_value());
  EXPECT_EQ(prober.last_error().code, ErrorCode::kShed);
  EXPECT_EQ(prober.last_error().retry_after_ms, 40.0);

  // ...and the retrying client sleeps at least that long between its
  // attempts (both of which shed while the slot stays held).
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff_ms = 1.0;
  policy.max_backoff_ms = 2.0;  // the hint must floor past this cap
  RetryingClient rc([&]() { return Client(server.connect_in_process()); },
                    policy);
  const WallTimer wall;
  EXPECT_FALSE(rc.match(job_of("small")).has_value());
  EXPECT_GE(wall.seconds(), 0.040);
  EXPECT_EQ(rc.last_error().code, ErrorCode::kShed);
  EXPECT_EQ(rc.retry_stats().attempts, 2u);
  EXPECT_EQ(rc.retry_stats().giveups, 1u);

  // Release the occupier so teardown does not wait out the pipeline.
  ASSERT_TRUE(prober.cancel(1).has_value());
  ASSERT_TRUE(occupier.recv_frame().has_value());
}

TEST(ServeRetryingClient, PermanentRefusalsSurfaceWithoutRetry) {
  Server server(ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  RetryingClient rc([&]() { return Client(server.connect_in_process()); },
                    RetryPolicy{});
  EXPECT_FALSE(rc.match(job_of("never-loaded")).has_value());
  EXPECT_EQ(rc.last_error().code, ErrorCode::kUnknownGraph);
  EXPECT_EQ(rc.retry_stats().attempts, 1u);
  EXPECT_EQ(rc.retry_stats().retries, 0u);
  EXPECT_EQ(rc.retry_stats().giveups, 1u);
}

TEST(ServeRetryingClient, ConnectFailuresAreBoundedByMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.5;
  policy.max_backoff_ms = 1.0;
  RetryingClient rc([]() { return Client(-1); }, policy);
  EXPECT_FALSE(rc.stats().has_value());
  EXPECT_EQ(rc.last_error().code, ErrorCode::kInternal);
  EXPECT_EQ(rc.last_error().message, "connect failed");
  EXPECT_EQ(rc.retry_stats().attempts, 3u);
  EXPECT_EQ(rc.retry_stats().reconnects, 0u);
  EXPECT_EQ(rc.retry_stats().giveups, 1u);
}

// ---------------------------------------------------------------------------
// The idle-session reaper.
// ---------------------------------------------------------------------------

TEST(ServeReaper, SilentSessionsAreReapedOnTheIdleDeadline) {
  ServerOptions opts;
  opts.session_idle_timeout_ms = 50.0;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client idle(server.connect_in_process());
  ASSERT_TRUE(idle.valid());
  bool reaped = false;
  for (int i = 0; i < 20000 && !reaped; ++i) {
    reaped = server.telemetry_plane().value(ServeCounter::kSessionsReaped) >= 1;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(reaped) << "idle session was never reaped";

  // The reaped connection is gone for good...
  idle.set_io_timeout_ms(1000.0);
  EXPECT_FALSE(idle.stats().has_value());
  EXPECT_TRUE(idle.transport_failed());

  // ...but an active client on the same server keeps working, and the
  // retrying client turns the reap into a transparent reconnect.
  RetryPolicy policy;
  policy.base_backoff_ms = 1.0;
  RetryingClient rc([&]() { return Client(server.connect_in_process()); },
                    policy);
  EXPECT_TRUE(rc.stats().has_value());
}

}  // namespace
}  // namespace matchsparse
