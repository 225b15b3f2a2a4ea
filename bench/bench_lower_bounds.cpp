// E5 — Lemma 2.13: any deterministic Δ-marking rule has approximation
//       ratio as bad as n/(2Δ) on the K_n − e family, while randomized
//       G_Δ stays (1+ε) on the same instances.
// E6 — Observation 2.14: G_Δ cannot preserve the exact MCM — on two odd
//       cliques joined by a bridge, P[bridge ∈ G_Δ] <= 4Δ/n, matching the
//       closed form 1 − (1 − 2Δ/n)².
#include "bench_common.hpp"
#include "sparsify/adversary_game.hpp"
#include "sparsify/sparsifier.hpp"

using namespace matchsparse;
using namespace matchsparse::bench;

namespace {

void table_deterministic() {
  Table table(
      "E5  deterministic marking vs randomized G_delta on K_n - e",
      {"n", "delta", "rule", "MCM(G_d)", "ratio", "lemma bound n/2d"});
  const VertexId n = 600;
  const VertexId delta = 6;
  const double full = n / 2.0;

  // The adversarial instance from the proof: the adversary funnels every
  // deterministic rule into a Δ-vertex dominating set D. We realise the
  // same effect constructively: relabel so that the rule's fixed choices
  // concentrate on few vertices. For position-based rules on sorted
  // adjacency arrays, the "first Δ" rule marks only low-id neighbors —
  // so the missing edge hides among high ids and the matching collapses.
  for (auto [rule, name] :
       {std::pair{DeterministicRule::kFirstDelta, "first-delta"},
        std::pair{DeterministicRule::kLastDelta, "last-delta"},
        std::pair{DeterministicRule::kStride, "stride"}}) {
    StreamingStats worst;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      const Graph g = gen::complete_minus_edge(n, rng);
      const EdgeList edges = sparsify_edges_deterministic(g, delta, rule);
      const Graph gd = Graph::from_edges(n, edges);
      worst.add(static_cast<double>(reference_mcm_size(gd)));
    }
    table.row()
        .cell(n)
        .cell(delta)
        .cell(name)
        .cell(worst.min(), 0)
        .cell(full / worst.min(), 2)
        .cell(static_cast<double>(n) / (2.0 * delta), 2);
  }
  // Randomized G_Δ on the same instances at the same tiny Δ, and at the
  // (1+ε)-grade Δ.
  for (VertexId d : {delta, SparsifierParams::practical(2, 0.3).delta}) {
    StreamingStats ratio;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng grng(seed);
      const Graph g = gen::complete_minus_edge(n, grng);
      const Graph gd = sparsify(g, d, mix64(seed, 5));
      ratio.add(full / static_cast<double>(reference_mcm_size(gd)));
    }
    table.row()
        .cell(n)
        .cell(d)
        .cell("randomized G_delta")
        .cell(full / ratio.max(), 0)
        .cell(ratio.max(), 2)
        .cell("-");
  }
  table.print();
  std::printf("# shape check: position-based deterministic rules lose the "
              "high-id / low-id region where the non-edge hides only when "
              "the adversarial relabeling aligns with them. A single fixed "
              "rule CAN luck out on a random instance; the lemma says some "
              "instance defeats every rule. The stride rows approach "
              "n/(2*delta); randomized G_delta never degrades.\n");
}

void table_interactive_game() {
  // The lemma's actual proof object: the adaptive probe-answering
  // adversary, played against several deterministic strategies with
  // full query budgets. Every strategy must lose: ratio >= n/(2Δ), or
  // an infeasible output.
  Table table("E5.b  interactive Lemma 2.13 game (adaptive adversary)",
              {"n", "delta", "strategy", "outcome", "ratio",
               "bound n/2d"});
  const DeterministicSparsifierAlgo first_slots =
      [](const ProbeFn& probe, VertexId n, VertexId delta) {
        EdgeList marks;
        for (VertexId v = 0; v < n; ++v) {
          for (VertexId i = 0; i < delta; ++i) {
            marks.push_back(Edge(v, probe(v, i)).normalized());
          }
        }
        return marks;
      };
  const DeterministicSparsifierAlgo strided =
      [](const ProbeFn& probe, VertexId n, VertexId delta) {
        EdgeList marks;
        for (VertexId v = 0; v < n; ++v) {
          for (VertexId i = 0; i < delta; ++i) {
            const auto slot = static_cast<VertexId>(
                (static_cast<std::uint64_t>(i) * (n - 1)) / delta);
            marks.push_back(Edge(v, probe(v, slot)).normalized());
          }
        }
        return marks;
      };
  const DeterministicSparsifierAlgo blind =
      [](const ProbeFn&, VertexId n, VertexId) {
        EdgeList marks;
        for (VertexId v = 0; v + 1 < n; v += 2) marks.emplace_back(v, v + 1);
        return marks;
      };
  for (VertexId n : {200u, 800u}) {
    for (VertexId delta : {4u, 16u}) {
      for (auto [algo, name] :
           {std::pair<const DeterministicSparsifierAlgo*, const char*>{
                &first_slots, "probe first slots"},
            {&strided, "probe strided"},
            {&blind, "blind perfect matching"}}) {
        const GameResult r = play_lemma_2_13_game(n, delta, *algo);
        table.row()
            .cell(n)
            .cell(delta)
            .cell(name)
            .cell(r.infeasible ? "INFEASIBLE output" : "feasible")
            .cell(r.ratio, 2)
            .cell(static_cast<double>(n) / (2.0 * delta), 2);
      }
    }
  }
  table.print();
  std::printf("# shape check: the adversary funnels every probe answer "
              "into its delta-vertex trap set, so feasible outputs match "
              "at most delta edges (ratio >= n/2d exactly), and outputs "
              "that mark unprobed edges get one declared the non-edge.\n");
}

void table_exactness() {
  Table table(
      "E6  bridge survival on two odd cliques + bridge (trials = 400)",
      {"n", "delta", "P[bridge kept] measured", "1-(1-2d/n)^2 predicted",
       "P[exact MCM preserved]"});
  for (VertexId n : {202u, 402u, 802u}) {
    Edge bridge;
    const Graph g = gen::two_cliques_bridge(n, &bridge);
    for (VertexId delta : {2u, 8u}) {
      int kept = 0;
      int exact = 0;
      constexpr int kTrials = 400;
      for (int t = 0; t < kTrials; ++t) {
        const EdgeList edges = sparsify_edges(
            g, delta, mix64(n, static_cast<std::uint64_t>(t) * 2 + delta));
        const bool has_bridge =
            std::binary_search(edges.begin(), edges.end(), bridge);
        kept += has_bridge;
        if (has_bridge) {
          // The bridge is necessary AND sufficient here: each K_{n/2}
          // minus one vertex still has a perfect matching in any
          // sparsifier piece... verify properly on a sample.
          if (t % 20 == 0) {
            const Graph gd = Graph::from_edges(n, edges);
            exact += (reference_mcm_size(gd) == n / 2);
          }
        }
      }
      // Predicted with the 2Δ-tweak marking budget per endpoint: each
      // bridge endpoint samples Δ of its (n/2) incident edges (degree
      // n/2 > 2Δ in all configurations here).
      const double half = n / 2.0;
      const double miss = (1.0 - static_cast<double>(delta) / half);
      const double predicted = 1.0 - miss * miss;
      table.row()
          .cell(n)
          .cell(delta)
          .cell(static_cast<double>(kept) / kTrials, 4)
          .cell(predicted, 4)
          .cell(exact > 0 ? "sometimes (needs bridge)" : "never observed");
    }
  }
  table.print();
  std::printf("# shape check: measured bridge-survival matches the closed "
              "form and vanishes like 2*delta/(n/2) — exact preservation "
              "needs delta = Omega(n), Observation 2.14.\n");
}

}  // namespace

int main() {
  banner("E5/E6 lower bounds (Lemma 2.13, Observation 2.14)",
         "determinism or exactness both force delta ~ n — randomization "
         "and (1+eps) slack are necessary, not artifacts");
  table_deterministic();
  table_interactive_game();
  table_exactness();
  return 0;
}
