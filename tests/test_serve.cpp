// End-to-end tests for the matchsparse_serve daemon core (DESIGN.md
// §15), run fully in-process: every test drives a real Server over
// socketpair connections, so the exact production byte stream — frame
// codec, protocol payloads, session threads, admission, cache, guards —
// is exercised without a filesystem socket.
//
// Layers covered here:
//   - protocol golden frames and strict payload decoding,
//   - malformed / truncated frame handling per the poison contract,
//   - cache hit/miss/evict semantics and the lane-independent key,
//   - QoS envelopes: budget- and cancel-tripped requests degrade
//     without poisoning the cache,
//   - concurrency: 8 clients bit-identical to solo (serve::divergence),
//   - shutdown drain, CANCEL frames, per-request artifact export.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "gen/generators.hpp"
#include "guard/context.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/diffcheck.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

using serve::Client;
using serve::ErrorCode;
using serve::FrameType;
using serve::JobRequest;
using serve::LoadRequest;
using serve::MatchReply;
using serve::ServeCounter;
using serve::Server;
using serve::ServerOptions;

Graph disk_graph(VertexId n, std::uint64_t seed, double avg_deg = 8.0) {
  Rng rng(seed);
  return gen::unit_disk(n, gen::unit_disk_radius_for_degree(n, avg_deg), rng);
}

/// An input above 2Δ for job_of's β = 5, ε = 0.25 (max degree 399 >
/// 2Δ = 366), so its G_Δ is sampled and gets a sparsifier cache entry.
/// disk_graph()'s inputs stay at or below 2Δ, where G_Δ is the graph
/// itself and the daemon serves from the graph's own entry.
Graph sampled_graph() { return gen::complete_graph(400); }

LoadRequest load_of(const std::string& source, const Graph& g) {
  LoadRequest req;
  req.source = source;
  req.n = g.num_vertices();
  req.edges = g.edge_list();
  return req;
}

JobRequest job_of(const std::string& source, std::uint64_t seed = 11,
                  std::uint64_t threads = 1) {
  JobRequest req;
  req.source = source;
  req.beta = 5;  // unit-disk family bound
  req.eps = 0.25;
  req.seed = seed;
  req.threads = threads;
  return req;
}

/// Matched pairs must be disjoint, canonical, and edges of g.
void expect_valid_matching(const Graph& g, const EdgeList& matched) {
  std::vector<bool> used(g.num_vertices(), false);
  for (const Edge& e : matched) {
    ASSERT_LT(e.u, e.v);
    ASSERT_LT(e.v, g.num_vertices());
    EXPECT_FALSE(used[e.u]) << "vertex " << e.u << " matched twice";
    EXPECT_FALSE(used[e.v]) << "vertex " << e.v << " matched twice";
    used[e.u] = used[e.v] = true;
  }
}

RunStatus status_of(const MatchReply& rep) {
  return static_cast<RunStatus>(rep.status);
}

// ---------------------------------------------------------------------------
// Protocol: golden frames and strict decoding.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, JobFrameGoldenBytes) {
  JobRequest req;  // all defaults
  req.source = "g";
  const Frame f = serve::encode(FrameType::kMatch, req, 5);
  EXPECT_EQ(f.type, 0x03);
  EXPECT_EQ(f.request_id, 5u);
  const std::vector<std::uint8_t> expected = {
      0x01, 0x00, 0x00, 0x00, 0x67,                    // str "g"
      0x02, 0x00, 0x00, 0x00,                          // beta = 2
      0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xc9, 0x3f,  // eps = 0.2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seed = 0
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // threads = 1
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // deadline = 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // budget = 0
      0x02,                                            // degrade = maximal
      0x00,                                            // matcher = serial
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // cancel polls = 0
  };
  EXPECT_EQ(f.payload, expected);

  // And the whole wire frame: length 9 + 59, type, id.
  const std::vector<std::uint8_t> wire = encode_frame(f);
  ASSERT_EQ(wire.size(), 4u + 9u + expected.size());
  EXPECT_EQ(wire[0], 9u + expected.size());
  EXPECT_EQ(wire[4], 0x03);
  EXPECT_EQ(wire[5], 0x05);
}

TEST(ServeProtocol, RequestRoundTrips) {
  LoadRequest load;
  load.source = "grid";
  load.n = 4;
  load.edges = {{0, 1}, {2, 3}};
  const Frame lf = serve::encode(load, 9);
  const auto lr = serve::decode_load({lf.payload.data(), lf.payload.size()});
  ASSERT_TRUE(lr.has_value());
  EXPECT_EQ(lr->source, "grid");
  EXPECT_EQ(lr->n, 4u);
  EXPECT_EQ(lr->edges, load.edges);

  JobRequest job = job_of("grid", 77, 4);
  job.deadline_ms = 12.5;
  job.mem_budget_bytes = 1 << 20;
  job.degrade = 1;
  job.matcher = 1;
  job.cancel_after_polls = 3;
  const Frame jf = serve::encode(FrameType::kPipeline, job, 10);
  const auto jr = serve::decode_job({jf.payload.data(), jf.payload.size()});
  ASSERT_TRUE(jr.has_value());
  EXPECT_EQ(jr->source, "grid");
  EXPECT_EQ(jr->beta, 5u);
  EXPECT_EQ(jr->eps, 0.25);
  EXPECT_EQ(jr->seed, 77u);
  EXPECT_EQ(jr->threads, 4u);
  EXPECT_EQ(jr->deadline_ms, 12.5);
  EXPECT_EQ(jr->mem_budget_bytes, 1u << 20);
  EXPECT_EQ(jr->degrade, 1);
  EXPECT_EQ(jr->matcher, 1);
  EXPECT_EQ(jr->cancel_after_polls, 3u);
}

TEST(ServeProtocol, MatchReplyRoundTripsAndRejectsEveryTruncation) {
  MatchReply rep;
  rep.status = 2;
  rep.stop_reason = 3;
  rep.partial = 1;
  rep.cache_hit = 1;
  rep.eps_effective = 0.5;
  rep.guarantee = 1.5;
  rep.size_floor = 7;
  rep.delta = 12;
  rep.sparsifier_edges = 99;
  rep.polls = 1234;
  rep.mem_peak_bytes = 1 << 22;
  rep.server_serial = 42;
  rep.matched = {{0, 3}, {1, 2}};
  rep.detail = "budget tripped; degraded";
  const Frame f = serve::encode_reply(FrameType::kMatch, rep, 6);
  EXPECT_EQ(f.type, serve::reply(FrameType::kMatch));

  const auto back =
      serve::decode_match_reply({f.payload.data(), f.payload.size()});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, rep.status);
  EXPECT_EQ(back->stop_reason, rep.stop_reason);
  EXPECT_EQ(back->partial, rep.partial);
  EXPECT_EQ(back->cache_hit, rep.cache_hit);
  EXPECT_EQ(back->eps_effective, rep.eps_effective);
  EXPECT_EQ(back->guarantee, rep.guarantee);
  EXPECT_EQ(back->size_floor, rep.size_floor);
  EXPECT_EQ(back->delta, rep.delta);
  EXPECT_EQ(back->sparsifier_edges, rep.sparsifier_edges);
  EXPECT_EQ(back->polls, rep.polls);
  EXPECT_EQ(back->mem_peak_bytes, rep.mem_peak_bytes);
  EXPECT_EQ(back->server_serial, rep.server_serial);
  EXPECT_EQ(back->matched, rep.matched);
  EXPECT_EQ(back->detail, rep.detail);

  for (std::size_t len = 0; len < f.payload.size(); ++len) {
    SCOPED_TRACE(len);
    EXPECT_FALSE(serve::decode_match_reply({f.payload.data(), len}));
  }
}

TEST(ServeProtocol, OversizedTextTruncatesInsteadOfOverflowingTheFrame) {
  // kMaxWireEdges is derived so the worst-case reply — every edge
  // matched plus a maximal detail string — still fits one frame; the
  // text side of that bound is enforced by truncation at encode time.
  MatchReply rep;
  rep.detail = std::string(serve::kMaxWireDetailBytes + 500, 'x');
  const Frame f = serve::encode_reply(FrameType::kMatch, rep, 1);
  const auto back =
      serve::decode_match_reply({f.payload.data(), f.payload.size()});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->detail.size(), serve::kMaxWireDetailBytes);
  EXPECT_EQ(back->detail, rep.detail.substr(0, serve::kMaxWireDetailBytes));

  serve::ErrorReply err;
  err.code = ErrorCode::kInternal;
  err.message = std::string(serve::kMaxWireDetailBytes + 500, 'y');
  const Frame ef = serve::encode_error(err, 2);
  const auto eb =
      serve::decode_error_reply({ef.payload.data(), ef.payload.size()});
  ASSERT_TRUE(eb.has_value());
  EXPECT_EQ(eb->message.size(), serve::kMaxWireDetailBytes);
}

TEST(ServeCache, SlashContainingSourceNamesCannotAliasSparsifierKeys) {
  serve::GraphCache cache(64ull << 20);
  std::uint64_t bytes = 0;
  cache.put_sparsifier({"x", 5, 7}, disk_graph(16, 0xa11a), &bytes);
  EXPECT_NE(cache.get_sparsifier({"x", 5, 7}), nullptr);
  // No '/'-crafted source may resolve to the same entry, and a different
  // delta/seed under the same source stays distinct too.
  EXPECT_EQ(cache.get_sparsifier({"x/5", 7, 2}), nullptr);
  EXPECT_EQ(cache.get_sparsifier({"x/5/7", 2, 0}), nullptr);
  EXPECT_EQ(cache.get_sparsifier({"x", 5, 8}), nullptr);
}

TEST(ServeCache, LruEvictionDropsTheGraphsSparsifiers) {
  const Graph g = disk_graph(64, 0xabcb);
  const std::uint64_t unit = serve::GraphCache::graph_bytes(g);
  serve::GraphCache cache(3 * unit + unit / 2);
  std::uint64_t bytes = 0;
  bool replaced = false;
  cache.put_graph("a", g, &bytes, &replaced);
  const serve::SparsifierKey sa{"a", 5, 7};
  cache.put_sparsifier(sa, g, &bytes);
  // A request touches its graph before its sparsifier, so the graph is
  // the older of the two and LRU reaches it first.
  ASSERT_NE(cache.get_graph("a"), nullptr);
  ASSERT_NE(cache.get_sparsifier(sa), nullptr);
  cache.put_graph("b", g, &bytes, &replaced);
  cache.put_graph("c", g, &bytes, &replaced);

  // Making room for c evicts graph a, and its sparsifier goes with it.
  const auto st = cache.stats();
  EXPECT_EQ(st.graphs, 2u);
  EXPECT_EQ(st.sparsifiers, 0u);
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.bytes_used, 2 * unit);
  EXPECT_EQ(cache.get_graph("a"), nullptr);
  EXPECT_EQ(cache.get_sparsifier(sa), nullptr);
  EXPECT_NE(cache.get_graph("b"), nullptr);
  EXPECT_NE(cache.get_graph("c"), nullptr);
}

TEST(ServeCache, SparsifierNeverEvictsItsOwnGraph) {
  const Graph g = disk_graph(64, 0xabcc);
  const std::uint64_t unit = serve::GraphCache::graph_bytes(g);
  serve::GraphCache cache(unit + unit / 2);
  std::uint64_t bytes = 0;
  bool replaced = false;
  cache.put_graph("a", g, &bytes, &replaced);
  // G_Δ of a fits only in a's place; caching it there would leave a
  // sparsifier no request can reach, so it is handed back uncached.
  const serve::SparsifierKey sa{"a", 5, 7};
  EXPECT_NE(cache.put_sparsifier(sa, g, &bytes), nullptr);
  EXPECT_EQ(bytes, 0u);
  EXPECT_NE(cache.get_graph("a"), nullptr);
  EXPECT_EQ(cache.get_sparsifier(sa), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ServeProtocol, EveryRequestDecoderRejectsTrailingByte) {
  const Frame load = serve::encode(load_of("g", Graph::from_edges(2, {})), 1);
  const Frame job = serve::encode(FrameType::kMatch, job_of("g"), 2);
  serve::EvictRequest ev;
  ev.source = "g";
  const Frame evict = serve::encode(ev, 3);
  serve::CancelRequest ca;
  ca.server_serial = 4;
  const Frame cancel = serve::encode(ca, 4);

  const auto with_trailer = [](const Frame& f) {
    std::vector<std::uint8_t> p = f.payload;
    p.push_back(0);
    return p;
  };
  EXPECT_TRUE(serve::decode_load({load.payload.data(), load.payload.size()}));
  EXPECT_FALSE(serve::decode_load(with_trailer(load)));
  EXPECT_TRUE(serve::decode_job({job.payload.data(), job.payload.size()}));
  EXPECT_FALSE(serve::decode_job(with_trailer(job)));
  EXPECT_TRUE(
      serve::decode_evict({evict.payload.data(), evict.payload.size()}));
  EXPECT_FALSE(serve::decode_evict(with_trailer(evict)));
  EXPECT_TRUE(
      serve::decode_cancel({cancel.payload.data(), cancel.payload.size()}));
  EXPECT_FALSE(serve::decode_cancel(with_trailer(cancel)));
}

TEST(ServeProtocol, LoadDecoderRejectsAbsurdEdgeCountWithoutAllocating) {
  ByteWriter w;
  w.str("g");
  w.u32(10);
  w.u64(1ull << 60);  // declared edge count: would be 16 EiB of payload
  const std::vector<std::uint8_t> payload = w.take();
  EXPECT_FALSE(serve::decode_load({payload.data(), payload.size()}));
}

TEST(ServeProtocol, ErrorReplyRoundTrip) {
  serve::ErrorReply err;
  err.code = ErrorCode::kShed;
  err.message = "inflight cap reached";
  const Frame f = serve::encode_error(err, 8);
  EXPECT_EQ(f.type, 0xff);
  const auto back =
      serve::decode_error_reply({f.payload.data(), f.payload.size()});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->code, ErrorCode::kShed);
  EXPECT_EQ(back->message, "inflight cap reached");
}

// ---------------------------------------------------------------------------
// End-to-end over in-process connections.
// ---------------------------------------------------------------------------

class ServeEndToEnd : public ::testing::Test {
 protected:
  static ServerOptions options() {
    ServerOptions o;
    o.cache_bytes = 64ull << 20;
    return o;
  }

  void SetUp() override {
    server_ = std::make_unique<Server>(options());
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }

  Client client() { return Client(server_->connect_in_process()); }

  std::unique_ptr<Server> server_;
};

TEST_F(ServeEndToEnd, LoadNormalizesAndReportsCharge) {
  Client c = client();
  ASSERT_TRUE(c.valid());
  LoadRequest req;
  req.source = "messy";
  req.n = 4;
  // A self-loop, a duplicate, and reversed endpoints: normalized away.
  req.edges = {{1, 0}, {0, 1}, {2, 2}, {1, 2}};
  const auto rep = c.load(req);
  ASSERT_TRUE(rep.has_value()) << c.last_error().message;
  EXPECT_EQ(rep->n, 4u);
  EXPECT_EQ(rep->m, 2u);
  EXPECT_GT(rep->bytes_charged, 0u);
  EXPECT_EQ(rep->replaced, 0);

  // Out-of-range endpoints stay a hard reject.
  req.edges = {{0, 7}};
  EXPECT_FALSE(c.load(req).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadFrame);
  // An empty source name too.
  req.source.clear();
  req.edges = {{0, 1}};
  EXPECT_FALSE(c.load(req).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadFrame);
}

TEST_F(ServeEndToEnd, MatchMatchesTheLibraryAndHitsAreIdentical) {
  const Graph g = sampled_graph();
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());

  const JobRequest job = job_of("g");
  const auto miss = c.match(job);
  ASSERT_TRUE(miss.has_value()) << c.last_error().message;
  EXPECT_EQ(status_of(*miss), RunStatus::kOk);
  EXPECT_EQ(miss->cache_hit, 0);
  EXPECT_GT(miss->delta, 0u);
  EXPECT_GT(miss->sparsifier_edges, 0u);
  EXPECT_GE(miss->server_serial, 1u);
  expect_valid_matching(g, miss->matched);

  // The wire answer is the direct library call's answer.
  ApproxMatchingConfig cfg;
  cfg.beta = job.beta;
  cfg.eps = job.eps;
  cfg.seed = job.seed;
  cfg.threads = 1;
  RunOutcome lib;
  {
    guard::RunContext ctx("test.lib");
    ctx.set_publish_on_destroy(false);
    const guard::ScopedContext scope(ctx);
    lib = approx_maximum_matching_guarded(g, cfg);
  }
  EXPECT_EQ(serve::divergence(serve::signature_of(lib),
                              serve::signature_of(*miss)),
            "");

  // Second request hits the cache and answers bit-identically, for
  // fewer polls (the build stage is skipped).
  const auto hit = c.match(job);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cache_hit, 1);
  EXPECT_EQ(serve::divergence(serve::signature_of(*miss),
                              serve::signature_of(*hit)),
            "");
  EXPECT_LE(hit->polls, miss->polls);

  const auto cs = server_->cache().stats();
  EXPECT_GE(cs.hits, 1u);
  EXPECT_EQ(cs.sparsifiers, 1u);
}

TEST_F(ServeEndToEnd, PipelineBypassesTheCache) {
  const Graph g = disk_graph(400, 0xabc2);
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());

  const auto a = c.pipeline(job_of("g"));
  const auto b = c.pipeline(job_of("g"));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cache_hit, 0);
  EXPECT_EQ(b->cache_hit, 0);
  EXPECT_EQ(serve::divergence(serve::signature_of(*a),
                              serve::signature_of(*b)),
            "");
  // The deliberately cold path never populated the sparsifier cache.
  EXPECT_EQ(server_->cache().stats().sparsifiers, 0u);
}

TEST_F(ServeEndToEnd, SparsifyWarmsTheCacheAndEveryLaneCountSharesIt) {
  const Graph g = sampled_graph();
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());

  const auto cold = c.sparsify(job_of("g", 11, /*threads=*/2));
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->cache_hit, 0);
  EXPECT_GT(cold->edges, 0u);
  EXPECT_GT(cold->bytes_charged, 0u);

  // Every lane count draws the same edges: threads=1 and threads=4 are
  // HITs on the threads=2 entry.
  const auto one_lane = c.sparsify(job_of("g", 11, /*threads=*/1));
  ASSERT_TRUE(one_lane.has_value());
  EXPECT_EQ(one_lane->cache_hit, 1);
  EXPECT_EQ(one_lane->edges, cold->edges);
  const auto lanes4 = c.sparsify(job_of("g", 11, /*threads=*/4));
  ASSERT_TRUE(lanes4.has_value());
  EXPECT_EQ(lanes4->cache_hit, 1);
  EXPECT_EQ(lanes4->edges, cold->edges);
  EXPECT_EQ(server_->cache().stats().sparsifiers, 1u);

  // MATCH on the warmed lane is a hit from the first request.
  const auto hit = c.match(job_of("g", 11, /*threads=*/2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cache_hit, 1);
}

TEST_F(ServeEndToEnd, UnknownGraphAndBadConfigRefused) {
  Client c = client();
  EXPECT_FALSE(c.match(job_of("nope")).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kUnknownGraph);

  const Graph g = disk_graph(64, 0xabc4);
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  JobRequest bad = job_of("g");
  bad.eps = 0.0;
  EXPECT_FALSE(c.match(bad).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadConfig);
  bad = job_of("g");
  bad.beta = 0;
  EXPECT_FALSE(c.match(bad).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadConfig);
  bad = job_of("g");
  bad.degrade = 3;
  EXPECT_FALSE(c.match(bad).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadConfig);
  // matcher = 1 names a removed backend: it still decodes, but the
  // daemon refuses it.
  bad = job_of("g");
  bad.matcher = 1;
  EXPECT_FALSE(c.match(bad).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadConfig);
  EXPECT_EQ(c.last_error().message, "frontier backend removed");
  bad = job_of("g");
  bad.matcher = 2;
  EXPECT_FALSE(c.match(bad).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadConfig);
  // A wire-controlled lane count sizes per-lane arrays in the parallel
  // backends: absurd values must be refused, not allocated.
  bad = job_of("g");
  bad.threads = 1ull << 40;
  EXPECT_FALSE(c.match(bad).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadConfig);

  // The connection survived every refusal.
  EXPECT_TRUE(c.stats().has_value());
  EXPECT_FALSE(c.transport_failed());
}

TEST_F(ServeEndToEnd, TinyEpsMatchesOnTheGraphAndDaemonSurvives) {
  // β = 1, ε = 1e-300 is a legal job whose Δ formula overflows every
  // integer type; Δ saturates above every degree, so G_Δ = K_40.
  const Graph g = gen::complete_graph(40);
  Client c = client();
  ASSERT_TRUE(c.load(load_of("k40", g)).has_value());
  JobRequest job = job_of("k40");
  job.beta = 1;
  job.eps = 1e-300;
  const auto rep = c.match(job);
  ASSERT_TRUE(rep.has_value()) << c.last_error().message;
  EXPECT_EQ(status_of(*rep), RunStatus::kOk);
  EXPECT_EQ(rep->delta, SparsifierParams::kMaxDelta);
  EXPECT_EQ(rep->sparsifier_edges, g.num_edges());
  expect_valid_matching(g, rep->matched);
  EXPECT_EQ(rep->matched.size(), 20u);
  EXPECT_TRUE(c.stats().has_value());
  EXPECT_FALSE(c.transport_failed());
}

TEST_F(ServeEndToEnd, MalformedPayloadRefusedButConnectionSurvives) {
  Client c = client();
  Frame f;
  f.type = static_cast<std::uint8_t>(FrameType::kMatch);
  f.request_id = 31;
  f.payload = {0xff};  // not a job payload
  ASSERT_TRUE(c.send_frame(f));
  const auto rep = c.recv_frame();
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->type, 0xff);
  EXPECT_EQ(rep->request_id, 31u);
  const auto err =
      serve::decode_error_reply({rep->payload.data(), rep->payload.size()});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kBadFrame);

  // Unknown frame type: same shape of refusal.
  f.type = 0x55;
  f.payload.clear();
  ASSERT_TRUE(c.send_frame(f));
  const auto rep2 = c.recv_frame();
  ASSERT_TRUE(rep2.has_value());
  EXPECT_EQ(rep2->type, 0xff);

  // A well-formed request still works afterwards.
  EXPECT_TRUE(c.stats().has_value());
}

TEST_F(ServeEndToEnd, BrokenFramingDropsTheConnection) {
  Client c = client();
  // Declared length 8 < the 9-byte minimum: the decoder poisons and the
  // server reports once (request id 0) then drops us.
  const std::uint8_t bad[4] = {8, 0, 0, 0};
  ASSERT_TRUE(c.send_bytes(bad, sizeof(bad)));
  const auto rep = c.recv_frame();
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->type, 0xff);
  EXPECT_EQ(rep->request_id, 0u);
  // EOF follows: the connection is gone.
  EXPECT_FALSE(c.recv_frame().has_value());

  // The server is unharmed: a fresh connection serves normally.
  Client c2 = client();
  EXPECT_TRUE(c2.stats().has_value());
}

TEST_F(ServeEndToEnd, TruncatedFrameThenEofIsAQuietDrop) {
  Client c = client();
  // First 6 bytes of a valid frame, then our write side closes.
  const Frame f = serve::encode_empty(FrameType::kStats, 1);
  const std::vector<std::uint8_t> wire = encode_frame(f);
  ASSERT_TRUE(c.send_bytes(wire.data(), 6));
  ::shutdown(c.fd(), SHUT_WR);
  // No reply, no error frame — an incomplete frame at EOF is a dead
  // peer, not a protocol violation.
  EXPECT_FALSE(c.recv_frame().has_value());
  Client c2 = client();
  EXPECT_TRUE(c2.stats().has_value());
}

TEST_F(ServeEndToEnd, EvictDropsDependentsAndReplaceDoesToo) {
  const Graph g = sampled_graph();
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  ASSERT_TRUE(c.sparsify(job_of("g")).has_value());
  ASSERT_EQ(server_->cache().stats().sparsifiers, 1u);

  const auto ev = c.evict("g");
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->entries, 2u);  // the graph and its sparsifier
  EXPECT_GT(ev->bytes_freed, 0u);
  EXPECT_FALSE(c.match(job_of("g")).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kUnknownGraph);

  // Reloading a name drops its dependents.
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  ASSERT_TRUE(c.sparsify(job_of("g")).has_value());
  const auto reload = c.load(load_of("g", g));
  ASSERT_TRUE(reload.has_value());
  EXPECT_EQ(reload->replaced, 1);
  const auto again = c.sparsify(job_of("g"));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->cache_hit, 0);

  // Empty source: evict everything.
  const auto all = c.evict("");
  ASSERT_TRUE(all.has_value());
  EXPECT_GE(all->entries, 2u);
  EXPECT_EQ(server_->cache().stats().bytes_used, 0u);
}

TEST_F(ServeEndToEnd, StatsReportTelemetryAndCacheCounters) {
  Client c = client();
  const auto s = c.stats();
  ASSERT_TRUE(s.has_value());
  EXPECT_NE(s->json.find("\"requests\":"), std::string::npos);
  EXPECT_NE(s->json.find("\"cache\":{"), std::string::npos);
  EXPECT_NE(s->json.find("\"shutting_down\":0"), std::string::npos);
}

TEST_F(ServeEndToEnd, BudgetTrippedMatchDegradesWithoutPoisoningTheCache) {
  const Graph g = sampled_graph();
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());

  JobRequest starved = job_of("g");
  starved.mem_budget_bytes = 1;  // every big-array charge trips
  const auto degraded = c.match(starved);
  ASSERT_TRUE(degraded.has_value()) << c.last_error().message;
  EXPECT_EQ(status_of(*degraded), RunStatus::kDegradedMaximal);
  EXPECT_EQ(static_cast<guard::StopReason>(degraded->stop_reason),
            guard::StopReason::kBudget);
  expect_valid_matching(g, degraded->matched);
  // The tripped build never reached the cache.
  EXPECT_EQ(server_->cache().stats().sparsifiers, 0u);

  // With degradation off the same starvation is a clean failure.
  starved.degrade = 0;
  const auto failed = c.match(starved);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(status_of(*failed), RunStatus::kFailed);
  EXPECT_EQ(failed->partial, 1);
  EXPECT_EQ(server_->cache().stats().sparsifiers, 0u);

  // An unrestricted request now builds, caches, and serves hits.
  const auto clean = c.match(job_of("g"));
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(status_of(*clean), RunStatus::kOk);
  EXPECT_EQ(clean->cache_hit, 0);
  const auto hit = c.match(job_of("g"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cache_hit, 1);
  EXPECT_EQ(serve::divergence(serve::signature_of(*clean),
                              serve::signature_of(*hit)),
            "");
}

TEST_F(ServeEndToEnd, CancelTrippedBuildReportsCancelledCacheUntouched) {
  const Graph g = sampled_graph();
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());

  JobRequest victim = job_of("g");
  victim.cancel_after_polls = 1;  // trips on the very first guard poll
  const auto cancelled = c.match(victim);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(status_of(*cancelled), RunStatus::kCancelled);
  EXPECT_EQ(cancelled->partial, 1);
  EXPECT_TRUE(cancelled->matched.empty());
  EXPECT_EQ(server_->cache().stats().sparsifiers, 0u);
  EXPECT_GE(server_->telemetry_plane().value(ServeCounter::kTrippedBuilds), 1u);

  const auto clean = c.match(job_of("g"));
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(status_of(*clean), RunStatus::kOk);
}

TEST_F(ServeEndToEnd, IdentityRegimeServesTheCachedGraph) {
  const Graph g = disk_graph(600, 0xabca);
  Client c = client();
  const auto load = c.load(load_of("g", g));
  ASSERT_TRUE(load.has_value()) << c.last_error().message;

  const JobRequest job = job_of("g");
  ApproxMatchingConfig cfg;
  cfg.beta = job.beta;
  cfg.eps = job.eps;
  cfg.seed = job.seed;
  cfg.threads = 1;
  ASSERT_TRUE(sparsifier_is_graph(g, cfg));
  ASSERT_FALSE(sparsifier_is_graph(sampled_graph(), cfg));

  // G_Δ is the cached graph, so even the first MATCH is a hit, and it
  // is the direct library call bit for bit, poll count and peak too.
  const auto first = c.match(job);
  ASSERT_TRUE(first.has_value()) << c.last_error().message;
  EXPECT_EQ(status_of(*first), RunStatus::kOk);
  EXPECT_EQ(first->cache_hit, 1);
  EXPECT_EQ(first->sparsifier_edges, g.num_edges());
  RunOutcome lib;
  {
    guard::RunContext ctx("test.lib");
    ctx.set_publish_on_destroy(false);
    const guard::ScopedContext scope(ctx);
    lib = approx_maximum_matching_guarded(g, cfg);
  }
  EXPECT_EQ(serve::divergence(serve::signature_of(lib),
                              serve::signature_of(*first)),
            "");
  EXPECT_EQ(first->polls, lib.polls);
  EXPECT_EQ(first->mem_peak_bytes, lib.mem_peak_bytes);

  // No sparsifier entry: the graph's bytes are the whole cache.
  auto cs = server_->cache().stats();
  EXPECT_EQ(cs.graphs, 1u);
  EXPECT_EQ(cs.sparsifiers, 0u);
  EXPECT_EQ(cs.bytes_used, load->bytes_charged);

  // SPARSIFY reports G_Δ = G as a hit and charges nothing.
  const auto sp = c.sparsify(job);
  ASSERT_TRUE(sp.has_value()) << c.last_error().message;
  EXPECT_EQ(sp->cache_hit, 1);
  EXPECT_EQ(sp->delta, first->delta);
  EXPECT_EQ(sp->edges, g.num_edges());
  EXPECT_EQ(sp->bytes_charged, 0u);
  cs = server_->cache().stats();
  EXPECT_EQ(cs.sparsifiers, 0u);
  EXPECT_EQ(cs.bytes_used, load->bytes_charged);

  // With no build to trip, the matcher's own charge still trips a
  // 1-byte budget on every rung...
  JobRequest starved = job;
  starved.mem_budget_bytes = 1;
  const auto degraded = c.match(starved);
  ASSERT_TRUE(degraded.has_value()) << c.last_error().message;
  EXPECT_EQ(status_of(*degraded), RunStatus::kDegradedMaximal);
  EXPECT_EQ(static_cast<guard::StopReason>(degraded->stop_reason),
            guard::StopReason::kBudget);
  expect_valid_matching(g, degraded->matched);

  // ...and the identity step's poll still cancels on the first poll.
  JobRequest victim = job;
  victim.cancel_after_polls = 1;
  const auto cancelled = c.match(victim);
  ASSERT_TRUE(cancelled.has_value()) << c.last_error().message;
  EXPECT_EQ(status_of(*cancelled), RunStatus::kCancelled);
  EXPECT_EQ(cancelled->partial, 1);
  EXPECT_TRUE(cancelled->matched.empty());
  EXPECT_EQ(server_->cache().stats().sparsifiers, 0u);
}

TEST_F(ServeEndToEnd, CancelFrameForUnknownSerialReportsNotFound) {
  Client c = client();
  const auto rep = c.cancel(987654321);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->found, 0);
}

TEST_F(ServeEndToEnd, CancelFrameInterruptsAnInflightRequest) {
  // The victim is the FIRST job on this server, so its serial is 1 and
  // a second connection can aim CANCEL at it without a discovery step.
  const Graph g = disk_graph(60000, 0xabc8);
  Client victim_client = client();
  ASSERT_TRUE(victim_client.load(load_of("big", g)).has_value());

  std::optional<MatchReply> victim_rep;
  std::atomic<bool> sent{false};
  std::atomic<bool> done{false};
  std::thread victim([&] {
    sent.store(true, std::memory_order_release);
    victim_rep = victim_client.pipeline(job_of("big"));
    done.store(true, std::memory_order_release);
  });
  while (!sent.load(std::memory_order_acquire)) {
  }

  Client canceller = client();
  bool found = false;
  // Retry until the victim's context registers (or the run finishes —
  // on a machine fast enough to beat the cancel, the reply is kOk).
  for (int i = 0; i < 200000 && !found; ++i) {
    const auto rep = canceller.cancel(1);
    ASSERT_TRUE(rep.has_value());
    found = rep->found == 1;
    if (done.load(std::memory_order_acquire)) break;
  }
  victim.join();
  ASSERT_TRUE(victim_rep.has_value());
  expect_valid_matching(g, victim_rep->matched);
  if (found && status_of(*victim_rep) == RunStatus::kCancelled) {
    EXPECT_EQ(static_cast<guard::StopReason>(victim_rep->stop_reason),
              guard::StopReason::kCancelled);
    EXPECT_GE(
        server_->telemetry_plane().value(ServeCounter::kCancelsDelivered), 1u);
  } else {
    // The run outraced the cancel; it must then be a clean full result.
    EXPECT_EQ(status_of(*victim_rep), RunStatus::kOk);
  }
}

TEST_F(ServeEndToEnd, EightConcurrentClientsAnswerBitIdenticallyToSolo) {
  const Graph g = disk_graph(800, 0xabc9);
  Client warm = client();
  ASSERT_TRUE(warm.load(load_of("g", g)).has_value());
  const JobRequest job = job_of("g", 13, /*threads=*/2);
  ASSERT_TRUE(warm.match(job).has_value());  // warm the cache
  const auto solo = warm.match(job);
  ASSERT_TRUE(solo.has_value());
  ASSERT_EQ(solo->cache_hit, 1);

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 3;
  std::vector<std::vector<MatchReply>> replies(kClients);
  std::vector<std::string> failures(kClients);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client c = client();
      if (!c.valid()) {
        failures[t] = "connect failed";
        return;
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kClients) {
      }
      for (int r = 0; r < kRequestsEach; ++r) {
        const auto rep = c.match(job);
        if (!rep) {
          failures[t] = "refused: " + c.last_error().message;
          return;
        }
        replies[t].push_back(*rep);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kClients; ++t) {
    SCOPED_TRACE(t);
    ASSERT_EQ(failures[t], "");
    ASSERT_EQ(replies[t].size(), static_cast<std::size_t>(kRequestsEach));
    for (const MatchReply& rep : replies[t]) {
      EXPECT_EQ(rep.cache_hit, 1);
      EXPECT_EQ(serve::divergence(serve::signature_of(*solo),
                                  serve::signature_of(rep)),
                "");
      // Hit vs hit: even the poll counts must agree exactly.
      EXPECT_EQ(rep.polls, solo->polls);
    }
  }
}

TEST_F(ServeEndToEnd, SurvivorsUnmovedByConcurrentVictims) {
  // Mixed QoS load: well-behaved clients interleaved with budget- and
  // cancel-tripped victims. Survivor replies must not move at all.
  const Graph g = disk_graph(700, 0xabca);
  Client warm = client();
  ASSERT_TRUE(warm.load(load_of("g", g)).has_value());
  const JobRequest job = job_of("g", 29, /*threads=*/2);
  ASSERT_TRUE(warm.match(job).has_value());
  const auto solo = warm.match(job);
  ASSERT_TRUE(solo.has_value());

  std::vector<std::string> failures(4);
  std::vector<std::thread> threads;
  // Two survivors...
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Client c = client();
      for (int r = 0; r < 4; ++r) {
        const auto rep = c.match(job);
        if (!rep) {
          failures[t] = "survivor refused: " + c.last_error().message;
          return;
        }
        if (const std::string d = serve::divergence(
                serve::signature_of(*solo), serve::signature_of(*rep));
            !d.empty()) {
          failures[t] = "survivor diverged: " + d;
          return;
        }
      }
    });
  }
  // ...a budget victim on the cold path, and a cancel victim.
  threads.emplace_back([&] {
    Client c = client();
    JobRequest starved = job_of("g", 31);
    starved.mem_budget_bytes = 1;
    for (int r = 0; r < 2; ++r) {
      const auto rep = c.pipeline(starved);
      if (!rep || status_of(*rep) != RunStatus::kDegradedMaximal) {
        failures[2] = "budget victim did not degrade to maximal";
        return;
      }
    }
  });
  threads.emplace_back([&] {
    Client c = client();
    JobRequest doomed = job_of("g", 37);
    doomed.cancel_after_polls = 1;
    for (int r = 0; r < 2; ++r) {
      const auto rep = c.match(doomed);
      if (!rep || status_of(*rep) != RunStatus::kCancelled) {
        failures[3] = "cancel victim not cancelled";
        return;
      }
    }
  });
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i], "") << "thread " << i;
  }

  // And the cache is exactly as warm as before the storm.
  const auto after = warm.match(job);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->cache_hit, 1);
  EXPECT_EQ(serve::divergence(serve::signature_of(*solo),
                              serve::signature_of(*after)),
            "");
}

TEST_F(ServeEndToEnd, ShutdownAcksThenDrains) {
  const Graph g = disk_graph(64, 0xabcb);
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  EXPECT_TRUE(c.shutdown());
  EXPECT_TRUE(server_->shutting_down());
  // The connection stays up, but new jobs are refused...
  EXPECT_FALSE(c.match(job_of("g")).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kShuttingDown);
  // ...and new connections are too.
  EXPECT_EQ(server_->connect_in_process(), -1);
  server_->wait();  // returns immediately once draining
}

TEST(ServeOptions, LoadCapsRefuseOversizedGraphs) {
  ServerOptions opts;
  opts.max_vertices = 8;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client c(server.connect_in_process());
  const Graph g = disk_graph(32, 0xabcc);
  EXPECT_FALSE(c.load(load_of("g", g)).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kTooLarge);
}

TEST(ServeOptions, InflightCapShedsConcurrentJobs) {
  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client occupier(server.connect_in_process());
  const Graph big = disk_graph(120000, 0xabcd);
  ASSERT_TRUE(occupier.load(load_of("big", big)).has_value());
  const Graph small = disk_graph(64, 0xabce);
  Client prober(server.connect_in_process());
  ASSERT_TRUE(prober.load(load_of("small", small)).has_value());

  // Ship the occupier's PIPELINE frame without waiting for its reply,
  // then hold off probing until the server reports it inflight. A
  // spawn-a-thread-and-probe version of this test races the occupier's
  // admission against the probe loop; here the occupier provably holds
  // the single slot before the first probe is sent.
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

  // With the slot held, the probe sheds.
  const auto probe = prober.match(job_of("small"));
  ASSERT_FALSE(probe.has_value());
  EXPECT_EQ(prober.last_error().code, ErrorCode::kShed);
  EXPECT_GE(server.telemetry_plane().value(ServeCounter::kShed), 1u);

  // No need to sit out the multi-second pipeline: the occupier's job is
  // the first admitted on this server, so it carries serial 1 — cancel
  // it from the prober's connection and collect the (likely tripped,
  // possibly completed) reply.
  ASSERT_TRUE(prober.cancel(1).has_value());
  const auto reply = occupier.recv_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, serve::reply(FrameType::kPipeline));
  EXPECT_EQ(reply->request_id, 77u);
  const auto rep =
      serve::decode_match_reply({reply->payload.data(), reply->payload.size()});
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->server_serial, 1u);

  // Admission recovers once the slot frees up. The reply is sent before
  // the session thread releases the slot, so wait for the counter.
  bool slot_free = false;
  for (int i = 0; i < 20000 && !slot_free; ++i) {
    slot_free = server.inflight() == 0;
    if (!slot_free) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(slot_free) << "occupier never released the inflight slot";
  const auto after = prober.match(job_of("small"));
  EXPECT_TRUE(after.has_value()) << prober.last_error().message;
}

TEST(ServeOptions, PerRequestArtifactsExported) {
  const std::string prefix = ::testing::TempDir() + "serve_artifacts";
  ServerOptions opts;
  opts.metrics_prefix = prefix + ".metrics";
  opts.trace_prefix = prefix + ".trace";
  Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client c(server.connect_in_process());
  const Graph g = disk_graph(200, 0xabcf);
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  const auto rep = c.match(job_of("g"));
  ASSERT_TRUE(rep.has_value());
  ASSERT_EQ(rep->server_serial, 1u);

  // The reply goes out before the session thread writes the artifacts,
  // so give the export a moment to land instead of racing it.
  const auto slurp = [](const std::string& path) {
    for (int i = 0; i < 20000; ++i) {
      std::ifstream in(path);
      if (in) {
        std::ostringstream ss;
        ss << in.rdbuf();
        if (!ss.str().empty()) return ss.str();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::string();
  };
  const std::string metrics = slurp(opts.metrics_prefix + ".req1.json");
  EXPECT_NE(metrics.find('{'), std::string::npos) << "metrics export missing";
  const std::string trace = slurp(opts.trace_prefix + ".req1.json");
  EXPECT_NE(trace.find('['), std::string::npos) << "trace export missing";
  std::remove((opts.metrics_prefix + ".req1.json").c_str());
  std::remove((opts.trace_prefix + ".req1.json").c_str());
}

}  // namespace
}  // namespace matchsparse
