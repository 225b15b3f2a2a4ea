// E15 — ablations of the design choices DESIGN.md calls out:
//  (a) the Section 3.1 low-degree tweak (keep the whole neighborhood when
//      deg <= 2Δ) versus sampling Δ everywhere;
//  (b) the practical Δ scale versus the proof's constant 20;
//  (c) union-of-marks (the paper) versus both-endpoints-must-mark (the
//      Solomon ITCS'18 rule, which Lemma 2.13's discussion says fails in
//      bounded-β graphs);
//  (d) the dynamic window matcher's budget_scale pacing knob.
#include "bench_common.hpp"

#include "dynamic/adversary.hpp"
#include "dynamic/window_matcher.hpp"
#include "sparsify/degree_sparsifier.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/rng.hpp"

using namespace matchsparse;
using namespace matchsparse::bench;

namespace {

/// Variant builder: sample Δ everywhere (no low-degree tweak).
EdgeList sparsify_no_tweak(const Graph& g, VertexId delta, Rng& rng) {
  EdgeList marked;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId deg = g.degree(v);
    if (deg == 0) continue;
    for (std::uint64_t i :
         rng.sample_without_replacement(deg, std::min(deg, delta))) {
      marked.push_back(
          Edge(v, g.neighbor(v, static_cast<VertexId>(i))).normalized());
    }
  }
  normalize_edge_list(marked);
  return marked;
}

/// Variant: keep only edges marked from BOTH sides (Solomon's rule).
EdgeList sparsify_both_endpoints(const Graph& g, VertexId delta, Rng& rng) {
  EdgeList marks;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId deg = g.degree(v);
    if (deg == 0) continue;
    for (std::uint64_t i :
         rng.sample_without_replacement(deg, std::min(deg, delta))) {
      marks.push_back(
          Edge(v, g.neighbor(v, static_cast<VertexId>(i))).normalized());
    }
  }
  std::sort(marks.begin(), marks.end());
  EdgeList kept;
  for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
    if (marks[i] == marks[i + 1]) {
      kept.push_back(marks[i]);
      ++i;
    }
  }
  return kept;
}

void table_marking_rules() {
  Table table("E15.a  marking-rule ablation on K_900 (8 trials)",
              {"rule", "delta", "|E_d|", "ratio mean", "ratio max",
               "max degree"});
  const VertexId n = 900;
  const Graph g = gen::complete_graph(n);
  const double full = n / 2.0;
  const VertexId delta = 8;

  struct Rule {
    const char* name;
    std::function<EdgeList(const Graph&, VertexId, Rng&)> build;
  };
  const std::vector<Rule> rules = {
      {"union of marks + tweak (paper)",
       [](const Graph& gg, VertexId d, Rng& r) {
         return sparsify_edges(gg, d, r());
       }},
      {"union of marks, no tweak", sparsify_no_tweak},
      {"both endpoints must mark", sparsify_both_endpoints},
  };
  for (const Rule& rule : rules) {
    StreamingStats ratio;
    EdgeIndex edges = 0;
    VertexId max_deg = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      const EdgeList el = rule.build(g, delta, rng);
      const Graph gd = Graph::from_edges(n, el);
      edges = gd.num_edges();
      max_deg = std::max(max_deg, gd.max_degree());
      ratio.add(full / std::max(1.0, static_cast<double>(
                                         reference_mcm_size(gd))));
    }
    table.row()
        .cell(rule.name)
        .cell(delta)
        .cell(edges)
        .cell(ratio.mean(), 4)
        .cell(ratio.max(), 4)
        .cell(max_deg);
  }
  table.print();
  std::printf("# The tweak is a constant-factor implementation detail "
              "(identical quality), but the both-endpoints rule collapses "
              "already on K_n: an edge survives only if two independent "
              "delta/(n-1) draws coincide, leaving ~delta^2/n edges. The "
              "structured instance below shows the same failure against "
              "forced matching edges.\n");

  // The separating instance: a perfect matching of "hub pairs" where one
  // endpoint of each pair is hub-degree and the other is pendant-ish.
  // Both-endpoints marking keeps an edge only if the hub also picked it:
  // probability ~ delta/deg -> matching collapses. Union marking keeps
  // every pendant's edge: the pendant marks it.
  Table sep("E15.a'  separating instance: hubs with private partners",
            {"rule", "|MCM| kept", "of optimum"});
  // Build: h hubs; hub i has a private partner p_i (the matching edge)
  // plus edges to all other hubs (making deg(hub) large). beta <= ~2.
  const VertexId hubs = 300;
  EdgeList edges;
  for (VertexId i = 0; i < hubs; ++i) {
    edges.emplace_back(i, hubs + i);  // private partner
    for (VertexId j = i + 1; j < hubs; ++j) edges.emplace_back(i, j);
  }
  const Graph sep_g = Graph::from_edges(2 * hubs, edges);
  const double sep_opt = hubs;  // all private pairs
  for (const Rule& rule : rules) {
    StreamingStats kept;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      const Graph gd =
          Graph::from_edges(2 * hubs, rule.build(sep_g, delta, rng));
      kept.add(static_cast<double>(reference_mcm_size(gd)));
    }
    sep.row()
        .cell(rule.name)
        .cell(kept.mean(), 1)
        .cell(kept.mean() / sep_opt, 4);
  }
  sep.print();
  std::printf("# shape check: union marking keeps ~100%% (each pendant "
              "marks its only edge); the both-endpoints rule keeps an "
              "edge only when the hub reciprocates (~delta/deg) — exactly "
              "why the paper cannot reuse Solomon's trick in bounded-beta "
              "graphs.\n");
}

void table_delta_scale() {
  Table table("E15.b  practical vs proof constants (K_700, eps=0.3)",
              {"delta scale", "delta", "|E_d|/m", "ratio max (8 trials)"});
  const VertexId n = 700;
  const Graph g = gen::complete_graph(n);
  const double full = n / 2.0;
  for (double scale : {0.25, 0.5, 1.0, 2.0, 20.0}) {
    const VertexId delta =
        SparsifierParams::practical(1, 0.3, scale).delta;
    StreamingStats ratio;
    double frac = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      const Graph gd = sparsify(g, delta, rng());
      frac = static_cast<double>(gd.num_edges()) /
             static_cast<double>(g.num_edges());
      ratio.add(full / std::max(1.0, static_cast<double>(
                                         reference_mcm_size(gd))));
    }
    table.row().cell(scale, 2).cell(delta).cell(frac, 4).cell(ratio.max(), 4);
  }
  table.print();
  std::printf("# scale=20 is the proof constant (Theorem 2.1); every "
              "scale >= 0.25 already achieves ratio 1.0 here — the "
              "guarantee is what the constant buys, not the typical "
              "case.\n");
}

void table_budget_scale() {
  Table table("E15.c  window-matcher pacing knob (unit-disk churn)",
              {"budget_scale", "mean opt/alg", "worst opt/alg",
               "mean work/upd", "overruns"});
  const VertexId n = 1200;
  Rng rng(7);
  const double radius = gen::unit_disk_radius_for_degree(n, 14.0);
  const UpdateScript script = unit_disk_churn(n, radius, n / 2, 800, rng);
  for (double scale : {0.5, 2.0, 8.0}) {
    WindowMatcherOptions opt;
    opt.beta = 5;
    opt.eps = 0.4;
    opt.delta_scale = 0.5;
    opt.budget_scale = scale;
    WindowMatcher wm(n, opt);
    StreamingStats ratio;
    std::size_t step = 0;
    for (const Update& u : script) {
      if (u.insert) {
        wm.insert_edge(u.edge.u, u.edge.v);
      } else {
        wm.delete_edge(u.edge.u, u.edge.v);
      }
      if (++step % 500 == 0) {
        const VertexId opt_size = reference_mcm_size(wm.graph().snapshot());
        if (opt_size > 0) {
          ratio.add(static_cast<double>(opt_size) /
                    std::max<VertexId>(1, wm.matching().size()));
        }
      }
    }
    table.row()
        .cell(scale, 1)
        .cell(ratio.mean(), 4)
        .cell(ratio.max(), 4)
        .cell(static_cast<double>(wm.total_work()) /
                  static_cast<double>(script.size()),
              1)
        .cell(wm.window_overruns());
  }
  table.print();
  std::printf("# the bootstrap budget only matters until the first paced "
              "window; larger scales buy nothing but early-phase work.\n");
}

}  // namespace

int main() {
  banner("E15 design-choice ablations",
         "low-degree tweak, marking rule, proof-vs-practical constants, "
         "dynamic pacing");
  table_marking_rules();
  table_delta_scale();
  table_budget_scale();
  return 0;
}
