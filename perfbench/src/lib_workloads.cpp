// lib-dense and lib-linegraph: approx_maximum_matching in-process, one
// solve after another on one thread (the library's own pool does the
// parallel work on lib-dense).

#include <sched.h>

#include <thread>

#include "bench.hpp"
#include "core/api.hpp"
#include "gen/generators.hpp"
#include "loadgen.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "obs/metrics.hpp"
#include "tracing.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wire.hpp"

namespace perfbench {

namespace ms = matchsparse;
using ms::EdgeList;
using ms::Graph;
using ms::Matching;
using ms::VertexId;

namespace {

struct Input {
  VertexId n = 0;
  EdgeList edges;  // as generated; handed to Graph::from_edges
};

struct LibWorkload {
  ms::ApproxMatchingConfig cfg;
  std::vector<Input> inputs;
  /// Solves cycle through this many (input, sampling seed) pairs. Solve
  /// times differ from pair to pair, and a run's median is a median over
  /// the pairs, so more pairs make it steadier from run to run.
  std::size_t pairs = 0;
  double limit_ms = 0;  // latency limit of goodput_qps
};

/// CSR builds of every input in set-up; setup_s is their median. One
/// build of K_4800 takes from 0.3 to 0.6 s as the host's memory traffic
/// varies, and the median of three moved by a third from run to run.
constexpr int kSetupReps = 9;

/// K_n in the order gen::complete_graph generates it. Every seed gives the
/// same graph; the seed varies the per-solve sampling seeds, and with them
/// the matcher's share of a solve (from 3 to 30 ms).
///
/// β = 2 bounds K_n's neighborhood independence (1) from above, which is
/// all Thm 3.1 needs, and doubles Δ to 74. That makes building G_Δ about
/// two thirds of a solve. With β = 1 (Δ = 37) the sparsify and matching
/// medians were within 4–28% of each other and which was larger changed
/// from run to run, so the workload could not tell the layers apart.
LibWorkload dense(bool small) {
  LibWorkload w;
  w.cfg.beta = 2;
  w.cfg.eps = 0.25;
  w.cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  Input& in = w.inputs.emplace_back();
  in.n = small ? 1200 : 4800;
  in.edges.reserve(static_cast<std::size_t>(in.n) * (in.n - 1) / 2);
  for (VertexId u = 0; u < in.n; ++u) {
    for (VertexId v = u + 1; v < in.n; ++v) in.edges.emplace_back(u, v);
  }
  w.pairs = 128;
  w.limit_ms = 250;
  return w;
}

/// Line graphs of Erdős–Rényi base graphs (mean degree 10). Δ = 96 exceeds
/// every degree, so G_Δ = G and the bounded-augmentation matcher does most
/// of the work. Each base keeps an odd number of edges: its line graph
/// then has no perfect matching, one vertex stays free, and the matcher's
/// searches from it (which find no augmenting path within the length cap)
/// are most of a solve — the regime where the matcher's cost grows faster
/// than the graph. Left to chance, half the seeds would land in it and the
/// other half would solve several times faster. Those searches cost
/// different amounts on different graphs, so a run solves 32 graphs in
/// turn rather than one.
LibWorkload linegraph(bool small, std::uint64_t seed) {
  LibWorkload w;
  w.cfg.beta = 2;
  w.cfg.eps = 0.2;
  w.cfg.threads = 1;
  const VertexId base_n = small ? 300 : 1000;
  for (std::uint64_t k = 0; k < 32; ++k) {
    ms::Rng rng(ms::mix64(seed, k));
    EdgeList base = ms::gen::erdos_renyi(base_n, 10.0, rng).edge_list();
    if (base.size() % 2 == 0) base.pop_back();
    const Graph lg = ms::gen::line_graph(Graph::from_edges(base_n, base));
    w.inputs.push_back({lg.num_vertices(), lg.edge_list()});
  }
  w.pairs = 32;
  w.limit_ms = 500;
  return w;
}

/// Moves the calling thread to the next CPU it may run on, in turn. A
/// solve loop left to the scheduler stays on one CPU for seconds at a time,
/// and the CPUs of a shared host differ in speed (by up to 1.4x measured
/// at one moment on a 4-vCPU VM), so a run's median would depend on where
/// it happened to land. Visiting every CPU in turn averages over them.
class CpuRotation {
 public:
  CpuRotation() {
    ::sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { ::sched_setaffinity(0, sizeof(allowed_), &allowed_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

bool same_matching(const Matching& a, const Matching& b) {
  if (a.num_vertices() != b.num_vertices() || a.size() != b.size()) {
    return false;
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    if (a.mate(v) != b.mate(v)) return false;
  }
  return true;
}

}  // namespace

bool is_lib_workload(const std::string& name) {
  return name == "lib-dense" || name == "lib-linegraph";
}

void run_lib(const Options& o, Outcome& out) {
  const LibWorkload w = o.workload == "lib-dense"
                            ? dense(o.small)
                            : linegraph(o.small, ms::mix64(o.seed, 1));
  ms::ApproxMatchingConfig cfg = w.cfg;
  Report& rep = out.report;
  ms::obs::Tracer tracer;
  tracer.set_enabled(o.trace);
  ms::obs::Tracer* const tr = o.trace ? &tracer : nullptr;

  // Set-up: the first use of the shared pool, then the CSR build of every
  // input, repeated. Only one copy of each graph is alive at a time.
  double t = now_s();
  ms::default_pool();
  const double pool_s = now_s() - t;
  Samples setup_s;
  std::vector<Graph> graphs(w.inputs.size());
  for (int r = 0; r < kSetupReps; ++r) {
    double build_s = 0;
    for (std::size_t k = 0; k < graphs.size(); ++k) {
      graphs[k] = Graph();
      t = now_s();
      {
        const LayerSpan span(tr, "graph.csr");
        seam_delay(Layer::kGraph);
        graphs[k] = Graph::from_edges(w.inputs[k].n, w.inputs[k].edges);
      }
      build_s += now_s() - t;
    }
    setup_s.add(build_s + pool_s);
  }
  rep.set("setup_s", setup_s.quantile(0.5));
  rep.note("setup_s", "reps", kSetupReps);
  double n = 0, m = 0;
  for (const Graph& g : graphs) {
    n += g.num_vertices();
    m += static_cast<double>(g.num_edges());
  }
  rep.stamp("graphs", static_cast<double>(graphs.size()));
  rep.stamp("n", n);
  rep.stamp("m", m);
  rep.stamp("threads", static_cast<double>(cfg.threads));

  // References, off the clock: |MCM(G)| by blossom and the Lem 2.2 floor
  // per graph, and one warm-up solve per (graph, sampling seed) pair whose
  // matching every later solve of that pair must repeat.
  std::vector<double> mcm;
  std::vector<VertexId> floor;
  for (const Graph& g : graphs) {
    mcm.push_back(ms::blossom_mcm(g).size());
    floor.push_back(ms::maximum_matching_floor(g.num_non_isolated(), cfg.beta));
  }
  std::vector<std::uint64_t> seeds(w.pairs);
  std::vector<Matching> refs(w.pairs);
  VertexId delta = 0;
  for (std::size_t p = 0; p < w.pairs; ++p) {
    seeds[p] = ms::mix64(o.seed, 100 + p);
    cfg.seed = seeds[p];
    ms::ApproxMatchingResult r =
        ms::approx_maximum_matching(graphs[p % graphs.size()], cfg);
    refs[p] = std::move(r.matching);
    delta = r.delta;
  }
  rep.stamp("delta", static_cast<double>(delta));

  // The measured loop. In the traced run every other solve is split into
  // its two public calls under spans; the others stay whole and untraced,
  // which gives trace.overhead and core.overhead_ms_p50.
  Samples whole_ms, split_ms, ratio, mark_ms, build_ms;
  double probes = 0, reads = 0, edges = 0, marked = 0, split_solves = 0;
  std::uint64_t good = 0;
  ms::obs::Registry registry;
  CpuRotation rotation;
  const double start = now_s();
  for (std::uint64_t i = 0; now_s() - start < o.seconds; ++i) {
    rotation.next();
    const std::size_t p = i % w.pairs;
    const std::size_t k = p % graphs.size();
    const Graph& g = graphs[k];
    cfg.seed = seeds[p];
    // Every other solve, shifted by one each cycle through the pairs, so
    // each pair is solved both ways.
    const bool split = o.trace && (i + i / w.pairs) % 2 == 1;
    Matching matching;
    t = now_s();
    if (!split) {
      seam_delay(Layer::kMatching);
      matching = ms::approx_maximum_matching(g, cfg).matching;
    } else {
      const LayerSpan solve(tr, "solve");
      ms::SparsifierStats st;
      Graph gd;
      {
        const LayerSpan span(tr, "sparsify");
        gd = ms::build_matching_sparsifier(g, cfg, &st);
      }
      {
        const LayerSpan span(tr, "matching");
        const ms::obs::ScopedMetricsRegistry scope(registry);
        seam_delay(Layer::kMatching);
        matching = ms::approx_maximum_matching(g, cfg, &gd).matching;
      }
      probes += static_cast<double>(st.probes);
      reads += g.num_vertices() + 2.0 * static_cast<double>(g.num_edges());
      edges += static_cast<double>(st.edges);
      marked += static_cast<double>(st.marked);
      mark_ms.add(st.mark_seconds * 1e3);
      build_ms.add(st.build_seconds * 1e3);
      ++split_solves;
    }
    const double taken_ms = (now_s() - t) * 1e3;
    (split ? split_ms : whole_ms).add(taken_ms);

    ++out.attempted;
    const bool ok = matching.is_valid(g) && matching.size() >= floor[k] &&
                    matching.size() * (1.0 + cfg.eps) >= mcm[k] &&
                    same_matching(matching, refs[p]);
    if (!ok) ++out.failed;
    if (ok && taken_ms <= w.limit_ms) ++good;
    if (mcm[k] > 0) ratio.add(matching.size() / mcm[k]);
  }
  const double elapsed = now_s() - start;

  if (!o.trace) {
    rep.set_quantile("latency_ms_p50", whole_ms, 0.5);
    rep.set_tail("latency_ms_tail", whole_ms, 0.9);
    rep.set("goodput_qps", out.attempted > 0 ? std::optional(good / elapsed)
                                              : std::nullopt);
    rep.note("goodput_qps", "limit_ms", w.limit_ms);
    rep.set("match_ratio", ratio.mean());
    rep.set("peak_rss_mb", vm_hwm_mb("self"));
    return;
  }

  const std::vector<SpanRecord> spans = span_records(tracer);
  if (!write_chrome_trace(spans, o.trace_file())) {
    rep.problem("cannot write " + o.trace_file());
  }
  const Samples sparsify_ms = span_ms(spans, "sparsify");
  const Samples matching_ms = span_ms(spans, "matching");
  rep.set_quantile("graph.csr_ms", span_ms(spans, "graph.csr"), 0.5);
  rep.set_quantile("sparsify.ms_p50", sparsify_ms, 0.5);
  rep.set_quantile("sparsify.mark_ms_p50", mark_ms, 0.5);
  rep.set_quantile("sparsify.csr_ms_p50", build_ms, 0.5);
  rep.set_ratio("sparsify.probes", probes, split_solves);
  rep.set_ratio("sparsify.read_frac", probes, reads);
  rep.set_ratio("sparsify.edges", edges, split_solves);
  rep.set_ratio("sparsify.dedup_yield", edges, marked);
  rep.set_quantile("matching.ms_p50", matching_ms, 0.5);
  const double searches = registry.counter("matching.aug.searches").value();
  rep.set_ratio("matching.searches", searches, split_solves);
  rep.set_ratio("matching.search_yield",
                registry.counter("matching.aug.augmentations").value(), searches);
  const auto whole = whole_ms.quantile(0.5);
  const auto sp = sparsify_ms.quantile(0.5);
  const auto mt = matching_ms.quantile(0.5);
  rep.set("core.overhead_ms_p50",
          whole && sp && mt ? std::optional(*whole - *sp - *mt) : std::nullopt);
  const auto split_p50 = split_ms.quantile(0.5);
  rep.set("trace.overhead", split_p50 && whole && *whole > 0
                                ? std::optional(*split_p50 / *whole)
                                : std::nullopt);
}

}  // namespace perfbench
