// E2 — Observation 2.10: |E(G_Δ)| <= 2·|MCM(G)|·(Δ+β)  (and <= n·Δ),
// E3 — Observation 2.12: arboricity(G_Δ) <= 2Δ.
// (Our builder uses the Section 3.1 low-degree tweak — vertices of degree
// <= 2Δ keep everything — which doubles both constants; the tables verify
// the tweaked bounds 4|MCM|(Δ+β) / n·2Δ and arboricity <= 4Δ.)
#include "bench_common.hpp"
#include "graph/measures.hpp"
#include "sparsify/sparsifier.hpp"

using namespace matchsparse;
using namespace matchsparse::bench;

int main() {
  banner("E2/E3 sparsifier size and arboricity (Observations 2.10, 2.12)",
         "|E_delta| = O(|MCM|*delta) even when n >> |MCM|; "
         "arboricity(G_delta) = O(delta)");

  Table size_table(
      "E2  size bounds (low-MCM instances stress the refined bound)",
      {"instance", "n", "m", "delta", "|MCM|", "|E_d|", "2|MCM|(2d+b)",
       "2n*d", "refined ok", "naive ok"});

  struct Case {
    std::string name;
    Graph g;
    VertexId beta;
  };
  std::vector<Case> cases;
  {
    Rng rng(1);
    cases.push_back({"K_1200", gen::complete_graph(1200), 1});
    // Low-MCM instance: a clique plus isolated vertices. |MCM| = 100 while
    // n = 3000, so the refined 2|MCM|(2Δ+β) bound is ~15x tighter than
    // the naive 2nΔ. (By Lemma 2.2 a *connected* bounded-β graph cannot
    // have a small MCM, so isolated vertices are the honest way to stress
    // the refined bound — the paper's remark after Theorem 2.1 makes the
    // same normalisation.)
    const EdgeList clique_edges = gen::complete_graph(200).edge_list();
    cases.push_back({"K_200 + 2800 isolated",
                     Graph::from_edges(3000, clique_edges), 1});
    cases.push_back({"unitdisk n=4000",
                     gen::unit_disk(4000, gen::unit_disk_radius_for_degree(
                                              4000, 30.0),
                                    rng),
                     5});
    cases.push_back({"cliqueunion n=3000",
                     gen::clique_union(3000, 24, 4, rng), 4});
  }

  for (const auto& c : cases) {
    const VertexId delta = 8;
    const Graph gd = sparsify(c.g, delta, 7);
    const auto mcm = static_cast<std::uint64_t>(reference_mcm_size(c.g));
    const std::uint64_t refined = 2 * mcm * (2 * delta + c.beta);
    const std::uint64_t naive =
        2ull * c.g.num_vertices() * delta;
    size_table.row()
        .cell(c.name)
        .cell(c.g.num_vertices())
        .cell(c.g.num_edges())
        .cell(delta)
        .cell(mcm)
        .cell(gd.num_edges())
        .cell(refined)
        .cell(naive)
        .cell(gd.num_edges() <= refined ? "yes" : "NO")
        .cell(gd.num_edges() <= naive ? "yes" : "NO");
  }
  size_table.print();

  Table arb_table("E3  arboricity of G_delta vs the 4*delta bound",
                  {"family", "n", "delta", "arboricity in", "bound 4d",
                   "ok"});
  for (const auto& family : gen::standard_families()) {
    const VertexId n = family.name == "complete" ? 800 : 3000;
    const Graph g = family.make(n, 3);
    for (VertexId delta : {4u, 16u}) {
      const Graph gd = sparsify(g, delta, 11);
      const auto est = estimate_arboricity(gd);
      char bracket[64];
      std::snprintf(bracket, sizeof(bracket), "[%.0f, %.0f]", est.lower,
                    est.upper);
      arb_table.row()
          .cell(family.name)
          .cell(n)
          .cell(delta)
          .cell(bracket)
          .cell(4 * delta)
          .cell(est.lower <= 4.0 * delta ? "yes" : "NO");
    }
  }
  arb_table.print();
  return 0;
}
