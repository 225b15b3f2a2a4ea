// The serve telemetry plane (DESIGN.md §16): STATS request formats on
// the wire, the flight-recorder ring, the Prometheus exposition, and
// the versioned legacy JSON schema — all end-to-end against a real
// in-process Server where a server is involved.
//
// The compatibility pins here are deliberate golden-byte tests:
//   - a format-0 STATS request is byte-identical to the pre-format
//     empty-payload frame (old servers serve new clients),
//   - the legacy JSON reply's shape is pinned exactly on a pristine
//     server (schema leads the document),
//   - unknown format bytes are refused as bad-frame, never guessed.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "gen/generators.hpp"
#include "guard/guard.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/flight.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

using serve::Client;
using serve::ErrorCode;
using serve::FlightRecord;
using serve::FlightRecorder;
using serve::FrameType;
using serve::JobRequest;
using serve::LoadRequest;
using serve::Server;
using serve::ServerOptions;
using serve::StatsReply;

// ---------------------------------------------------------------------------
// STATS request format bytes.
// ---------------------------------------------------------------------------

TEST(ServeStatsProtocol, FormatZeroIsByteIdenticalToTheLegacyFrame) {
  // The compatibility hinge: a new client's default STATS request must
  // be indistinguishable from a pre-format client's, byte for byte.
  const Frame legacy = serve::encode_empty(FrameType::kStats, 42);
  const Frame modern = serve::encode_stats(serve::kStatsFormatJson, 42);
  EXPECT_EQ(encode_frame(modern), encode_frame(legacy));
  EXPECT_TRUE(modern.payload.empty());
}

TEST(ServeStatsProtocol, FormatRequestGoldenBytes) {
  const Frame prom = serve::encode_stats(serve::kStatsFormatPrometheus, 7);
  EXPECT_EQ(prom.type, 0x05);
  EXPECT_EQ(prom.payload, (std::vector<std::uint8_t>{0x01}));
  const std::vector<std::uint8_t> wire = encode_frame(prom);
  // length(4) + [type(1) + id(8) + payload(1)]
  ASSERT_EQ(wire.size(), 4u + 9u + 1u);
  EXPECT_EQ(wire[0], 10u);
  EXPECT_EQ(wire[4], 0x05);
  EXPECT_EQ(wire[5], 0x07);
  EXPECT_EQ(wire.back(), 0x01);

  const Frame flight = serve::encode_stats(serve::kStatsFormatFlight, 7);
  EXPECT_EQ(flight.payload, (std::vector<std::uint8_t>{0x02}));
}

TEST(ServeStatsProtocol, DecoderAcceptsKnownFormatsAndRejectsTheRest) {
  const auto decode = [](std::vector<std::uint8_t> payload) {
    return serve::decode_stats_request({payload.data(), payload.size()});
  };
  EXPECT_EQ(decode({}), serve::kStatsFormatJson);  // empty = legacy
  EXPECT_EQ(decode({0x00}), serve::kStatsFormatJson);
  EXPECT_EQ(decode({0x01}), serve::kStatsFormatPrometheus);
  EXPECT_EQ(decode({0x02}), serve::kStatsFormatFlight);
  EXPECT_FALSE(decode({0x03}).has_value());  // unknown format byte
  EXPECT_FALSE(decode({0xff}).has_value());
  EXPECT_FALSE(decode({0x01, 0x00}).has_value());  // trailing byte
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

FlightRecord record_for(std::uint64_t i) {
  FlightRecord r;
  r.serial = i;
  r.request_id = i + 100;
  r.frame_type = static_cast<std::uint8_t>(FrameType::kMatch);
  r.seed = i * 3 + 1;  // consistency marker for the torn-read check
  return r;
}

TEST(ServeFlight, RingKeepsTheLastCapacityRecordsOldestFirst) {
  FlightRecorder ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) ring.record(record_for(i));
  EXPECT_EQ(ring.completed(), 10u);
  const std::vector<FlightRecord> got = ring.dump();
  ASSERT_EQ(got.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i], record_for(6 + i)) << "slot " << i;
  }
}

TEST(ServeFlight, ZeroCapacityClampsToOneSlot) {
  FlightRecorder ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.record(record_for(5));
  ASSERT_EQ(ring.dump().size(), 1u);
  EXPECT_EQ(ring.dump()[0], record_for(5));
}

TEST(ServeFlight, RecordJsonGoldenStrings) {
  FlightRecord r;
  r.serial = 7;
  r.request_id = 9;
  r.frame_type = static_cast<std::uint8_t>(FrameType::kMatch);
  r.status = static_cast<std::uint8_t>(RunStatus::kOk);
  r.stop_reason = static_cast<std::uint8_t>(guard::StopReason::kNone);
  r.cache_hit = 1;
  r.delta = 5;
  r.seed = 11;
  r.lanes = 2;
  r.queue_ms = 0.5;
  r.service_ms = 1.25;
  r.mem_peak_bytes = 4096;
  EXPECT_EQ(serve::flight_record_json(r),
            "{\"serial\":7,\"request_id\":9,\"frame\":\"match\","
            "\"status\":\"ok\",\"stop\":\"none\",\"cache_hit\":1,"
            "\"delta\":5,\"seed\":11,\"lanes\":2,\"queue_ms\":0.500,"
            "\"service_ms\":1.250,\"mem_peak_bytes\":4096}");

  // A refused request reports the error code instead of an outcome.
  FlightRecord refused;
  refused.request_id = 3;
  refused.frame_type = static_cast<std::uint8_t>(FrameType::kPipeline);
  refused.error_code = static_cast<std::uint32_t>(ErrorCode::kShed);
  EXPECT_EQ(serve::flight_record_json(refused),
            "{\"serial\":0,\"request_id\":3,\"frame\":\"pipeline\","
            "\"error\":\"shed\",\"cache_hit\":0,\"delta\":0,\"seed\":0,"
            "\"lanes\":0,\"queue_ms\":0.000,\"service_ms\":0.000,"
            "\"mem_peak_bytes\":0}");
}

TEST(ServeFlight, DumpUnderWriterStormNeverTearsARecord) {
  // 4 writers wrap an 8-slot ring thousands of times while a reader
  // dumps continuously. Every dumped record must be internally
  // consistent (the seed marker matches its request_id) — the seqlock
  // discards torn slots instead of emitting franken-records.
  FlightRecorder ring(8);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> dumped{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightRecord& r : ring.dump()) {
        ASSERT_EQ(r.seed, r.request_id * 3 + 1)
            << "torn record for id " << r.request_id;
        dumped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        FlightRecord r;
        r.request_id = static_cast<std::uint64_t>(w) * kPerWriter + i;
        r.seed = r.request_id * 3 + 1;
        ring.record(r);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.completed(), kWriters * kPerWriter);
  // The final quiescent dump sees a full, consistent ring.
  EXPECT_EQ(ring.dump().size(), ring.capacity());
}

// ---------------------------------------------------------------------------
// End-to-end over in-process connections.
// ---------------------------------------------------------------------------

class TelemetryEndToEnd : public ::testing::Test {
 protected:
  static ServerOptions options() {
    ServerOptions o;
    o.cache_bytes = 64ull << 20;
    return o;
  }

  void start(const ServerOptions& o) {
    server_ = std::make_unique<Server>(o);
    std::string err;
    ASSERT_TRUE(server_->start(&err)) << err;
  }

  void SetUp() override { start(options()); }

  Client client() { return Client(server_->connect_in_process()); }

  static Graph test_graph(std::uint64_t seed) {
    Rng rng(seed);
    return gen::unit_disk(400, gen::unit_disk_radius_for_degree(400, 8.0),
                          rng);
  }

  static LoadRequest load_of(const std::string& source, const Graph& g) {
    LoadRequest req;
    req.source = source;
    req.n = g.num_vertices();
    req.edges = g.edge_list();
    return req;
  }

  static JobRequest job_of(const std::string& source,
                           std::uint64_t seed = 11) {
    JobRequest req;
    req.source = source;
    req.beta = 5;
    req.eps = 0.25;
    req.seed = seed;
    req.threads = 1;
    return req;
  }

  /// Moves `errors`, `requests` and `jobs_executed` on a fresh server,
  /// then reads every server counter in both STATS formats.
  void expect_both_stats_formats_agree() {
    Client c = client();
    Frame bad;  // a STATS frame with an unknown format byte
    bad.type = static_cast<std::uint8_t>(FrameType::kStats);
    bad.request_id = 1;
    bad.payload = {0x09};
    ASSERT_TRUE(c.send_frame(bad));
    ASSERT_TRUE(c.recv_frame().has_value());
    EXPECT_FALSE(c.match(job_of("absent")).has_value());
    ASSERT_TRUE(c.load(load_of("g", test_graph(0x5e7))).has_value());
    ASSERT_TRUE(c.match(job_of("g")).has_value());

    const auto json = c.stats();
    ASSERT_TRUE(json.has_value());
    const auto prom = c.stats_prometheus();
    ASSERT_TRUE(prom.has_value());
    const auto json_value = [&json](const std::string& key) {
      const std::string field = "\"" + key + "\":";
      const std::size_t pos = json->json.find(field);
      EXPECT_NE(pos, std::string::npos) << key;
      if (pos == std::string::npos) return ~0ull;
      return std::strtoull(json->json.c_str() + pos + field.size(), nullptr,
                           10);
    };
    const auto prom_value = [&prom](const std::string& series) {
      const std::string line = "\n" + series + " ";
      const std::size_t pos = prom->find(line);
      EXPECT_NE(pos, std::string::npos) << series;
      if (pos == std::string::npos) return ~0ull;
      return std::strtoull(prom->c_str() + pos + line.size(), nullptr, 10);
    };
    EXPECT_EQ(json_value("errors"), 2u);
    EXPECT_EQ(json_value("jobs_executed"), 1u);
    EXPECT_EQ(json_value("requests"), 5u);
    for (const std::string key :
         {"requests", "errors", "shed", "budget_clamped", "tripped_builds",
          "cancels_delivered", "jobs_executed", "dedup_replays",
          "dedup_waits", "sessions_reaped", "connections"}) {
      // The scrape is the next frame, so it has counted itself.
      const std::uint64_t scraped = key == "requests" ? 1 : 0;
      EXPECT_EQ(prom_value("matchsparse_serve_" + key + "_total"),
                json_value(key) + scraped)
          << key;
    }
    EXPECT_EQ(prom_value("matchsparse_serve_inflight"),
              json_value("inflight"));
  }

  std::unique_ptr<Server> server_;
};

TEST_F(TelemetryEndToEnd, PristineLegacyJsonIsPinnedExactly) {
  // First-ever request on a fresh server over its first connection: the
  // whole legacy document is deterministic, so pin it byte for byte.
  // Adding a field here is a schema decision — see DESIGN.md §16.
  Client c = client();
  ASSERT_TRUE(c.send_frame(serve::encode_empty(FrameType::kStats, 1)));
  const auto reply = c.recv_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, serve::reply(FrameType::kStats));
  const auto stats =
      serve::decode_stats_reply({reply->payload.data(), reply->payload.size()});
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->json,
            "{\"schema\":1,\"requests\":1,\"errors\":0,\"shed\":0,"
            "\"budget_clamped\":0,\"tripped_builds\":0,"
            "\"cancels_delivered\":0,\"jobs_executed\":0,"
            "\"dedup_replays\":0,\"dedup_waits\":0,\"sessions_reaped\":0,"
            "\"connections\":1,\"inflight\":0,"
            "\"shutting_down\":0,\"cache\":{\"hits\":0,\"misses\":0,"
            "\"evictions\":0,\"refused\":0,\"bytes_used\":0,"
            "\"bytes_cap\":67108864,\"graphs\":0,\"sparsifiers\":0}}");
}

TEST_F(TelemetryEndToEnd, EmptyPayloadAndFormatZeroGetIdenticalReplies) {
  // Same server state, same request id, both spellings of the legacy
  // request: the replies must be byte-identical (requests is bumped
  // between them, so compare through a second fresh server).
  Client c = client();
  ASSERT_TRUE(c.send_frame(serve::encode_empty(FrameType::kStats, 5)));
  const auto legacy = c.recv_frame();
  ASSERT_TRUE(legacy.has_value());

  ServerOptions o = options();
  Server other(o);
  std::string err;
  ASSERT_TRUE(other.start(&err)) << err;
  Client c2(other.connect_in_process());
  ASSERT_TRUE(c2.send_frame(serve::encode_stats(serve::kStatsFormatJson, 5)));
  const auto modern = c2.recv_frame();
  ASSERT_TRUE(modern.has_value());
  EXPECT_EQ(encode_frame(*modern), encode_frame(*legacy));
  other.stop();
}

TEST_F(TelemetryEndToEnd, UnknownFormatByteIsRefusedAsBadFrame) {
  Client c = client();
  Frame bad;
  bad.type = static_cast<std::uint8_t>(FrameType::kStats);
  bad.request_id = 9;
  bad.payload = {0x09};
  ASSERT_TRUE(c.send_frame(bad));
  const auto reply = c.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, 0xff);
  const auto err =
      serve::decode_error_reply({reply->payload.data(), reply->payload.size()});
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kBadFrame);
  // The refusal is a request error, not a poisoned connection.
  EXPECT_TRUE(c.stats().has_value());
}

TEST_F(TelemetryEndToEnd, ClientAcceptsCurrentSchemaRejectsNewer) {
  Client c = client();
  const auto ok = c.stats();
  ASSERT_TRUE(ok.has_value());
  EXPECT_NE(ok->json.find("\"schema\":1,"), std::string::npos);

  // A fake server on a raw socketpair answers with a future schema: the
  // client must refuse to interpret it — typed error, live transport.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Client real(fds[0]);
  Client fake(fds[1]);  // Client doubles as a raw frame pipe
  std::thread fake_server([&fake] {
    for (int i = 0; i < 2; ++i) {
      const auto req = fake.recv_frame();
      ASSERT_TRUE(req.has_value());
      StatsReply rep;
      rep.json = i == 0 ? "{\"schema\":99,\"requests\":0}"
                        : "{\"requests\":0}";  // pre-versioning server
      ASSERT_TRUE(fake.send_frame(
          serve::encode_reply(FrameType::kStats, rep, req->request_id)));
    }
  });
  EXPECT_FALSE(real.stats().has_value());
  EXPECT_FALSE(real.transport_failed());
  EXPECT_EQ(real.last_error().code, ErrorCode::kUnsupportedSchema);
  // A document with no schema field is a legacy server: accepted.
  const auto legacy = real.stats();
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->json, "{\"requests\":0}");
  fake_server.join();
}

TEST_F(TelemetryEndToEnd, PrometheusExpositionIsWellFormedAndOrdered) {
  const Graph g = test_graph(0x7e1e);
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    ASSERT_TRUE(c.match(job_of("g", seed % 2)).has_value());
  }

  const auto body = c.stats_prometheus();
  ASSERT_TRUE(body.has_value());
  const std::string& text = *body;
  EXPECT_NE(text.find("# TYPE matchsparse_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE matchsparse_serve_inflight gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE matchsparse_serve_service_ms summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("matchsparse_serve_match_cache_hit_total "),
            std::string::npos);
  // The _total suffix is conventional, never doubled.
  EXPECT_EQ(text.find("_total_total"), std::string::npos);

  // Quantiles for the match frame exist and are ordered.
  const auto value_of = [&text](const std::string& series) {
    const std::size_t pos = text.find(series + " ");
    EXPECT_NE(pos, std::string::npos) << series;
    if (pos == std::string::npos) return 0.0;
    return std::strtod(text.c_str() + pos + series.size() + 1, nullptr);
  };
  const double p50 = value_of(
      "matchsparse_serve_service_ms{frame=\"match\",quantile=\"0.5\"}");
  const double p99 = value_of(
      "matchsparse_serve_service_ms{frame=\"match\",quantile=\"0.99\"}");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  const double count = value_of(
      "matchsparse_serve_service_ms_count{frame=\"match\"}");
  EXPECT_EQ(count, 6.0);

  // Every non-comment line is exactly "<series> <number>".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    char* end = nullptr;
    (void)std::strtod(line.c_str() + sp + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
  }
}

TEST_F(TelemetryEndToEnd, BothStatsFormatsReadTheSameServerCounters) {
  expect_both_stats_formats_agree();
}

TEST_F(TelemetryEndToEnd, ServerCountersCountWithTelemetryOff) {
  ServerOptions o = options();
  o.telemetry = false;
  start(o);  // replaces the SetUp server
  expect_both_stats_formats_agree();
}

TEST_F(TelemetryEndToEnd, JobMetricsReachThePlaneNotTheGlobalRegistry) {
  // Plain default options: a job's library instruments fold into the
  // plane's registry, the aggregate STATS reads, and nowhere else.
  start(ServerOptions{});  // replaces the SetUp server
  const auto global_searches = [] {
    return obs::Registry::instance().snapshot().counter_value(
        "matching.aug.searches");
  };
  const auto plane_searches = [](const std::string& text) {
    const std::string line = "\nmatchsparse_matching_aug_searches_total ";
    const std::size_t pos = text.find(line);
    if (pos == std::string::npos) return 0ull;
    return std::strtoull(text.c_str() + pos + line.size(), nullptr, 10);
  };
  const std::uint64_t global_before = global_searches();
  Client c = client();
  const auto before = c.stats_prometheus();
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(c.load(load_of("g", test_graph(0x91ba1))).has_value());
  ASSERT_TRUE(c.match(job_of("g")).has_value());  // runs approx_mcm
  // The session serves frames in order, so this scrape's reply means
  // the MATCH's handler has returned and its context is gone.
  const auto after = c.stats_prometheus();
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(plane_searches(*after), plane_searches(*before));
  EXPECT_EQ(global_searches(), global_before);
}

TEST_F(TelemetryEndToEnd, FlightDumpOverTheWireHoldsTheJobs) {
  const Graph g = test_graph(0xf11);
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  ASSERT_TRUE(c.match(job_of("g")).has_value());
  ASSERT_TRUE(c.match(job_of("g")).has_value());  // cache hit
  ASSERT_TRUE(c.pipeline(job_of("g", 3)).has_value());

  const auto dump = c.flight_dump();
  ASSERT_TRUE(dump.has_value());
  std::vector<std::string> lines;
  std::istringstream in(*dump);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // Only job frames are recorded: LOAD and the STATS scrape are not.
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("{\"serial\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"queue_ms\":"), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"frame\":\"match\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cache_hit\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"frame\":\"pipeline\""), std::string::npos);
}

TEST_F(TelemetryEndToEnd, BadConfigRefusalIsAFlightRecordNotAnAbort) {
  // The Δ formula MS_CHECKs its β/ε domain; a wire job with ε = 0 must
  // be refused as bad-config (with Δ = 0 in the flight record) rather
  // than reaching that check and taking the daemon down.
  const Graph g = test_graph(0xbadc);
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  JobRequest bad = job_of("g");
  bad.eps = 0.0;
  EXPECT_FALSE(c.match(bad).has_value());
  EXPECT_EQ(c.last_error().code, ErrorCode::kBadConfig);

  const auto dump = c.flight_dump();
  ASSERT_TRUE(dump.has_value());
  EXPECT_NE(dump->find("\"error\":\"bad-config\""), std::string::npos);
  EXPECT_NE(dump->find("\"delta\":0"), std::string::npos);
}

TEST_F(TelemetryEndToEnd, GuardTripOverwritesTheFlightPath) {
  const std::string path =
      ::testing::TempDir() + "matchsparse_flight_trip.ndjson";
  std::remove(path.c_str());
  ServerOptions o = options();
  o.flight_path = path;
  start(o);  // replaces the SetUp server

  const Graph g = test_graph(0x791b);
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  JobRequest starved = job_of("g");
  starved.mem_budget_bytes = 1;  // every big-array charge trips
  const auto degraded = c.match(starved);
  ASSERT_TRUE(degraded.has_value());
  ASSERT_NE(degraded->stop_reason, 0);

  // The dump happens on the session thread after the reply is already
  // on the wire, so give it a moment to land.
  std::string contents;
  for (int i = 0; i < 2000 && contents.empty(); ++i) {
    std::ifstream in(path);
    if (in.good()) {
      std::stringstream buf;
      buf << in.rdbuf();
      contents = buf.str();
    }
    if (contents.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_FALSE(contents.empty()) << "guard trip did not write " << path;
  EXPECT_NE(contents.find("\"stop\":\"budget\""), std::string::npos)
      << contents;
  std::remove(path.c_str());
}

TEST_F(TelemetryEndToEnd, NoTelemetryKeepsTheFlightRecorderOn) {
  ServerOptions o = options();
  o.telemetry = false;
  o.flight_capacity = 16;
  start(o);

  const Graph g = test_graph(0x0ff);
  Client c = client();
  ASSERT_TRUE(c.load(load_of("g", g)).has_value());
  ASSERT_TRUE(c.match(job_of("g")).has_value());

  // Histograms and outcome counters are off...
  const auto body = c.stats_prometheus();
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->find("matchsparse_serve_service_ms_count{frame=\"match\"} 1"),
            std::string::npos);
  EXPECT_EQ(body->find("serve_outcome"), std::string::npos);
  // ...but the flight ring still records every job.
  const auto dump = c.flight_dump();
  ASSERT_TRUE(dump.has_value());
  EXPECT_NE(dump->find("\"frame\":\"match\""), std::string::npos);
  EXPECT_EQ(server_->telemetry_plane().flight().completed(), 1u);
}

}  // namespace
}  // namespace matchsparse
