// serve-hot and serve-churn: the real matchsparse_serve daemon over its
// unix socket, driven from this process over kConnections connections,
// one thread each.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/api.hpp"
#include "gen/generators.hpp"
#include "loadgen.hpp"
#include "matching/blossom.hpp"
#include "serve/diffcheck.hpp"
#include "tracing.hpp"
#include "util/rng.hpp"
#include "wire.hpp"

namespace perfbench {

namespace ms = matchsparse;
namespace serve = matchsparse::serve;
using ms::EdgeList;
using ms::Graph;
using ms::VertexId;

namespace {

constexpr std::size_t kConnections = 4;

struct ServeWorkload {
  bool open_loop = true;
  std::size_t sources = 0;
  std::size_t versions = 1;  // graph versions a LOAD cycles a source through
  VertexId n = 0;            // vertices per unit-disk graph
  double avg_degree = 0;
  double rate = 0;           // open loop: requests per second
  double load_share = 0;     // closed loop: share of requests that are LOADs
  double zipf_s = 0;         // source popularity exponent (0 = uniform)
  double limit_ms = 0;       // latency limit of goodput_qps
  std::string cache_bytes;   // daemon --cache-bytes
  int setup_reps = 3;        // daemon start-ups; setup_s takes their median
};

// serve-hot: every graph and sparsifier fits the cache, so every MATCH is
// a hit. The rate is about a quarter of the capacity 4 closed-loop
// connections reached when the benchmark was written (see README.md). A
// MATCH on one of these graphs takes from 0.03 to 0.5 ms depending on the
// graph, so a run spreads its requests over many graphs; with few, the
// latency quantiles would mostly say which graphs the seed drew.
ServeWorkload hot(bool small) {
  ServeWorkload w;
  w.open_loop = true;
  w.sources = small ? 16 : 256;
  w.n = small ? 200 : 500;
  w.avg_degree = 12;
  w.rate = 3750;
  w.limit_ms = 50;
  w.cache_bytes = "256m";
  return w;
}

// serve-churn: sources of mildly Zipf-skewed popularity whose graphs and
// sparsifiers need about 22 MB against a 12 MB cache, with LOADs replacing
// graphs. The skew is mild for the same reason serve-hot uses many graphs.
ServeWorkload churn(bool small) {
  ServeWorkload w;
  w.open_loop = false;
  w.sources = small ? 16 : 128;
  w.versions = 2;
  w.n = small ? 500 : 1000;
  w.avg_degree = 20;
  w.load_share = 0.1;
  w.zipf_s = 0.6;
  w.limit_ms = 50;
  w.cache_bytes = small ? "2m" : "12m";
  return w;
}

struct Version {
  EdgeList edges;
  Graph g;
  serve::RunSignature reference;
  double mcm = 0;
};

struct Source {
  std::string name;
  std::uint64_t match_seed = 0;
  std::vector<Version> versions;
};

serve::JobRequest job_for(const Source& s) {
  serve::JobRequest job;
  job.source = s.name;
  job.beta = 5;
  job.eps = 0.25;
  job.seed = s.match_seed;
  job.threads = 1;
  job.deadline_ms = 1000;  // generous: a request never degrades
  return job;
}

ms::ApproxMatchingConfig config_of(const serve::JobRequest& job) {
  ms::ApproxMatchingConfig cfg;
  cfg.beta = job.beta;
  cfg.eps = job.eps;
  cfg.seed = job.seed;
  cfg.threads = job.threads;
  return cfg;
}

std::vector<Source> make_sources(const ServeWorkload& w, std::uint64_t seed) {
  const double radius = ms::gen::unit_disk_radius_for_degree(w.n, w.avg_degree);
  std::vector<Source> sources(w.sources);
  for (std::size_t s = 0; s < w.sources; ++s) {
    Source& src = sources[s];
    char name[32];
    std::snprintf(name, sizeof(name), "g%zu", s);
    src.name = name;
    src.match_seed = ms::mix64(seed, 1000 + s);
    src.versions.resize(w.versions);
    for (std::size_t v = 0; v < w.versions; ++v) {
      Version& ver = src.versions[v];
      ms::Rng rng(ms::mix64(ms::mix64(seed, s), v));
      ver.g = ms::gen::unit_disk(w.n, radius, rng);
      ver.edges = ver.g.edge_list();
      ver.mcm = ms::blossom_mcm(ver.g).size();
      ver.reference = serve::signature_of(
          ms::approx_maximum_matching_guarded(ver.g, config_of(job_for(src))));
    }
  }
  return sources;
}

/// Zipf(s) popularity over the ranks one connection owns.
class RankPicker {
 public:
  RankPicker(std::vector<std::size_t> ranks, double s) : ranks_(std::move(ranks)) {
    double total = 0;
    for (const std::size_t r : ranks_) {
      total += 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
      cumulative_.push_back(total);
    }
    for (double& c : cumulative_) c /= total;
  }
  std::size_t pick(ms::Rng& rng) const {
    const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(),
                                     rng.uniform());
    return ranks_[std::min<std::size_t>(it - cumulative_.begin(), ranks_.size() - 1)];
  }

 private:
  std::vector<std::size_t> ranks_;
  std::vector<double> cumulative_;
};

/// What one logical request came to.
struct Result {
  bool ok = false;
  bool is_match = false;
  bool cache_hit = false;
  bool traced = false;
  double ratio = 0;        // |M| / |MCM(G)| of a MATCH that returned one
  double polls = 0;
  double mem_peak = 0;
  double reply_bytes = 0;
};

bool match_ok(const Reply& r, const Version& v) {
  if (!r.match || r.match->status != 0) return false;
  for (const ms::Edge& e : r.match->matched) {
    if (e.u >= v.g.num_vertices() || e.v >= v.g.num_vertices() ||
        !v.g.has_edge(e.u, e.v)) {
      return false;
    }
  }
  return serve::divergence(v.reference, serve::signature_of(*r.match)).empty();
}

bool load_ok(const Reply& r, const Version& v) {
  return r.load && r.load->n == v.g.num_vertices() && r.load->m == v.g.num_edges();
}

std::function<ms::Frame()> load_frame(const Source& s, const Version& v,
                                      std::uint64_t id) {
  return [&s, &v, id] {
    serve::LoadRequest req;
    req.source = s.name;
    req.n = v.g.num_vertices();
    req.edges = v.edges;
    return serve::encode(req, id);
  };
}

/// One workload's request mix against one daemon. Per connection: its
/// client, its sources (serve-churn: the ranks ≡ c mod 4, so a source's
/// current version only ever changes on the connection that checks
/// replies against it), its random stream and its results.
class Traffic {
 public:
  Traffic(const ServeWorkload& w, const std::vector<Source>& sources,
          const Daemon& daemon, std::uint64_t seed, ms::obs::Tracer* tracer)
      : w_(w), sources_(sources), seed_(seed), tracer_(tracer),
        current_(w.sources, 0), results_(kConnections), reloads_(kConnections, 0) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients_.push_back(serve::Client::connect_unix(daemon.socket_path()));
      if (!clients_.back().valid()) throw std::runtime_error("connect failed");
      std::vector<std::size_t> ranks;
      for (std::size_t s = c; s < w.sources; s += kConnections) ranks.push_back(s);
      pickers_.emplace_back(std::move(ranks), w.zipf_s);
      rngs_.emplace_back(ms::mix64(seed, 5000 + c));
    }
  }

  LoopRun run(double seconds) {
    const Op op = [this](std::size_t conn, std::uint64_t i, Timing& t) {
      request(conn, i, t);
    };
    return w_.open_loop ? run_open_loop(w_.rate, seconds, kConnections, op)
                        : run_closed_loop(seconds, kConnections, op);
  }

  const std::vector<std::vector<std::pair<std::uint64_t, Result>>>& results() const {
    return results_;
  }
  double reloads() const {
    double total = 0;
    for (const std::uint64_t r : reloads_) total += static_cast<double>(r);
    return total;
  }

 private:
  void request(std::size_t conn, std::uint64_t i, Timing& t) {
    serve::Client& client = clients_[conn];
    ms::Rng& rng = rngs_[conn];
    Result res;
    res.traced = tracer_ != nullptr && i % 2 == 1;
    ms::obs::Tracer* const tr = res.traced ? tracer_ : nullptr;
    const std::uint64_t id = (static_cast<std::uint64_t>(conn + 1) << 40) + i;
    const std::size_t s = w_.open_loop ? ms::mix64(seed_, 7000 + i) % w_.sources
                                       : pickers_[conn].pick(rng);
    const Source& src = sources_[s];
    if (!w_.open_loop && rng.uniform() < w_.load_share) {
      const std::size_t next = (current_[s] + 1) % w_.versions;
      const Reply r = exchange(client, load_frame(src, src.versions[next], id), tr, "load");
      t.done = now_s();
      res.ok = load_ok(r, src.versions[next]);
      if (res.ok) current_[s] = next;
      results_[conn].emplace_back(i, res);
      return;
    }
    const serve::JobRequest job = job_for(src);
    const auto match_frame = [&job, id] {
      return serve::encode(serve::FrameType::kMatch, job, id);
    };
    Reply r = exchange(client, match_frame, tr, "request");
    const Version& v = src.versions[current_[s]];
    if (r.error && r.error->code == serve::ErrorCode::kUnknownGraph) {
      // Evicted: re-LOAD its current version and retry once.
      ++reloads_[conn];
      if (load_ok(exchange(client, load_frame(src, v, id), tr, "load"), v)) {
        r = exchange(client, match_frame, tr, "request");
      }
    }
    t.done = now_s();
    res.is_match = true;
    res.ok = match_ok(r, v);
    if (r.match) {
      res.cache_hit = r.match->cache_hit != 0;
      res.ratio = v.mcm > 0 ? r.match->matched.size() / v.mcm : 0;
      res.polls = static_cast<double>(r.match->polls);
      res.mem_peak = static_cast<double>(r.match->mem_peak_bytes);
      res.reply_bytes = static_cast<double>(r.bytes);
    }
    results_[conn].emplace_back(i, res);
  }

  const ServeWorkload& w_;
  const std::vector<Source>& sources_;
  std::uint64_t seed_;
  ms::obs::Tracer* tracer_;
  std::vector<serve::Client> clients_;
  std::vector<RankPicker> pickers_;
  std::vector<ms::Rng> rngs_;
  std::vector<std::size_t> current_;
  std::vector<std::vector<std::pair<std::uint64_t, Result>>> results_;
  std::vector<std::uint64_t> reloads_;
};

/// Seconds of unmeasured traffic against the first set-up daemon. A host
/// whose CPUs sat idle stalls for up to a second once load arrives; this
/// absorbs that before the measured daemon starts.
constexpr double kWarmupSeconds = 1.5;

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve-hot" || name == "serve-churn";
}

void run_serve(const Options& o, Outcome& out) {
  const bool is_hot = o.workload == "serve-hot";
  const ServeWorkload w = is_hot ? hot(o.small) : churn(o.small);
  Report& rep = out.report;
  ms::obs::Tracer tracer;
  tracer.set_enabled(o.trace);
  ms::obs::Tracer* const tr = o.trace ? &tracer : nullptr;

  // Inputs and references, off the clock.
  const std::vector<Source> sources = make_sources(w, o.seed);
  // Set-up loads the least popular sources first, so the popular ones are
  // the most recently used when the run starts.
  std::vector<std::size_t> load_order(w.sources);
  for (std::size_t s = 0; s < w.sources; ++s) load_order[s] = w.sources - 1 - s;

  // Set-up: daemon start until its socket accepts, then per source its
  // LOAD and one warming SPARSIFY. Repeated; the last daemon serves the run,
  // so no MATCH frame reaches it before the measured run.
  const std::vector<std::string> flags = {"--cache-bytes=" + w.cache_bytes};
  const std::string stem = o.work_dir + "/d" + std::to_string(::getpid());
  std::unique_ptr<Daemon> daemon;
  Samples setup_s;
  std::uint64_t next_id = 1;
  for (int r = 0; r < w.setup_reps; ++r) {
    if (daemon && !daemon->shutdown(10.0)) rep.problem("set-up daemon did not shut down");
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(o.daemon, stem + "-" + std::to_string(r) + ".sock",
                                      flags, stem + ".log");
    if (!daemon->wait_ready(20.0)) {
      throw std::runtime_error("daemon did not start; see " + stem + ".log");
    }
    serve::Client c = serve::Client::connect_unix(daemon->socket_path());
    for (const std::size_t s : load_order) {
      const Reply rl = exchange(c, load_frame(sources[s], sources[s].versions[0], next_id++),
                                tr, "load");
      if (!load_ok(rl, sources[s].versions[0]) || !c.sparsify(job_for(sources[s]))) {
        throw std::runtime_error("set-up LOAD or SPARSIFY of " + sources[s].name + " failed");
      }
    }
    setup_s.add(now_s() - t0);
    if (r == 0) Traffic(w, sources, *daemon, ~o.seed, nullptr).run(kWarmupSeconds);
  }
  rep.set("setup_s", setup_s.quantile(0.5));
  rep.note("setup_s", "reps", static_cast<double>(w.setup_reps));
  rep.stamp("sources", static_cast<double>(w.sources));
  rep.stamp("n", static_cast<double>(w.n));
  rep.stamp("connections", static_cast<double>(kConnections));
  rep.stamp("cache_bytes", w.cache_bytes);
  if (w.open_loop) rep.stamp("rate_per_s", w.rate);

  serve::Client control = serve::Client::connect_unix(daemon->socket_path());
  const auto before_json = control.stats();
  const auto before_prom = control.stats_prometheus();
  if (!before_json || !before_prom) throw std::runtime_error("STATS failed");
  std::optional<Traffic> traffic(std::in_place, w, sources, *daemon, o.seed, tr);
  const LoopRun run = traffic->run(o.seconds);

  const auto after_json = control.stats();
  const auto after_prom = control.stats_prometheus();
  rep.set("peak_rss_mb", daemon->peak_rss_mb());
  if (!after_json || !after_prom) throw std::runtime_error("STATS failed");
  control.close();
  const auto results = traffic->results();
  const double reloaded = traffic->reloads();
  traffic.reset();
  if (!daemon->shutdown(10.0)) rep.problem("daemon did not shut down cleanly");

  // Per-request outcomes, joined with their timings.
  Samples latency_ms, traced_ms, untraced_ms, hit_ms, miss_ms, ratio, polls,
      reply_bytes;
  double mem_peak = 0;
  std::uint64_t good = 0;
  for (const auto& per_conn : results) {
    for (const auto& [i, res] : per_conn) {
      const double lat = run.timings[i].latency() * 1e3;
      ++out.attempted;
      if (!res.ok) ++out.failed;
      if (res.ok && lat <= w.limit_ms) ++good;
      latency_ms.add(lat);
      (res.traced ? traced_ms : untraced_ms).add(lat);
      if (!res.is_match) continue;
      if (res.ok) (res.cache_hit ? hit_ms : miss_ms).add(lat);
      if (res.reply_bytes > 0) {
        ratio.add(res.ratio);
        polls.add(res.polls);
        reply_bytes.add(res.reply_bytes);
        mem_peak = std::max(mem_peak, res.mem_peak);
      }
    }
  }
  const Lateness late = lateness_of(run, w.limit_ms);
  if (!late.valid) {
    rep.problem("generator p99 lateness above " +
                std::to_string(kMaxLateShareOfLimit) + " of the latency limit");
  }
  const std::string match_count = "matchsparse_serve_queue_ms_count{frame=\"match\"}";
  if (prom_value(*before_prom, match_count).value_or(0) != 0) {
    rep.problem("MATCH frames were served before the measured run");
  }
  const auto delta = [&](std::string_view key) {
    return json_field(after_json->json, key).value_or(0) -
           json_field(before_json->json, key).value_or(0);
  };
  const double hits = delta("hits");
  const double lookups = hits + delta("misses");
  if (is_hot && o.seconds > 0 && hits != lookups) {
    rep.problem("serve-hot saw cache misses");
  }

  if (!o.trace) {
    rep.set_quantile("latency_ms_p50", latency_ms, 0.5);
    rep.set_tail("latency_ms_tail", latency_ms, 0.9);
    rep.note("latency_ms_tail", "p99", latency_ms.quantile(0.99).value_or(0));
    rep.note("latency_ms_tail", "p95", latency_ms.quantile(0.95).value_or(0));
    if (w.open_loop) {
      rep.note("latency_ms_tail", "late_ms_p99", late.late_ms.quantile(0.99).value_or(0));
    }
    rep.set("goodput_qps",
            out.attempted > 0 ? std::optional(good / run.elapsed) : std::nullopt);
    rep.note("goodput_qps", "limit_ms", w.limit_ms);
    rep.set("match_ratio", ratio.mean());
    return;
  }

  const std::vector<SpanRecord> spans = span_records(tracer);
  if (!write_chrome_trace(spans, o.trace_file())) {
    rep.problem("cannot write " + o.trace_file());
  }
  const auto under_us = [&spans](std::string_view name, std::string_view parent) {
    Samples out_us;
    for (const SpanRecord& r : spans) {
      if (r.name == name && r.parent >= 0 &&
          spans[static_cast<std::size_t>(r.parent)].name == parent) {
        out_us.add(static_cast<double>(r.dur_us));
      }
    }
    return out_us;
  };
  const Samples load_us = under_us("rtt", "load");
  Samples load_ms;
  for (const double us : load_us.values()) load_ms.add(us / 1e3);
  rep.set_quantile("graph.load_ms_p50", load_ms, 0.5);
  rep.set("guard.polls", polls.mean());
  rep.note("guard.polls", "samples", static_cast<double>(polls.size()));
  rep.set("guard.mem_peak_mb",
          polls.size() > 0 ? std::optional(mem_peak / 1e6) : std::nullopt);
  rep.set_quantile("serve.encode_us_p50", under_us("encode", "request"), 0.5);
  rep.set_quantile("serve.decode_us_p50", under_us("decode", "request"), 0.5);
  rep.set("serve.reply_bytes", reply_bytes.mean());
  rep.note("serve.reply_bytes", "samples", static_cast<double>(reply_bytes.size()));

  // Daemon-side histograms of MATCH frames. No MATCH frame is sent before
  // the first scrape (checked above), so the second scrape's quantiles
  // cover exactly the measured run.
  const auto daemon_q = [&](const char* family, const char* q) {
    return prom_value(*after_prom, std::string("matchsparse_serve_") + family +
                                       "{frame=\"match\",quantile=\"" + q + "\"}");
  };
  const double served = prom_value(*after_prom, match_count).value_or(0);
  const auto queue_p50 = daemon_q("queue_ms", "0.5");
  const auto service_p50 = daemon_q("service_ms", "0.5");
  rep.set("serve.queue_ms_p99", daemon_q("queue_ms", "0.99"));
  rep.set("serve.service_ms_p50", service_p50);
  rep.set("serve.service_ms_p99", daemon_q("service_ms", "0.99"));
  for (const char* name : {"serve.queue_ms_p99", "serve.service_ms_p50",
                           "serve.service_ms_p99"}) {
    rep.note(name, "samples", served);
  }
  const auto request_p50 = untraced_ms.quantile(0.5);
  rep.set("serve.wire_ms_p50",
          request_p50 && queue_p50 && service_p50
              ? std::optional(*request_p50 - *service_p50 - *queue_p50)
              : std::nullopt);
  rep.set_ratio("serve.cache.hit_ratio", hits, lookups);
  rep.note("serve.cache.hit_ratio", "lookups", lookups);
  rep.set("serve.cache.evictions", delta("evictions"));
  rep.set("serve.reloads", reloaded);
  rep.set_quantile("serve.rtt_hit_ms_p50", hit_ms, 0.5);
  rep.set_quantile("serve.rtt_miss_ms_p50", miss_ms, 0.5);
  rep.set("serve.shed", delta("shed"));
  rep.set("serve.errors", delta("errors"));
  const auto traced_p50 = traced_ms.quantile(0.5);
  rep.set("trace.overhead", traced_p50 && request_p50 && *request_p50 > 0
                                ? std::optional(*traced_p50 / *request_p50)
                                : std::nullopt);
}

}  // namespace perfbench
