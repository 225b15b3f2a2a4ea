#include "sparsify/pipeline.hpp"

namespace matchsparse {

ComposedSparsifier composed_sparsifier(const Graph& g, VertexId beta,
                                       double eps, Rng& rng,
                                       double delta_scale,
                                       double alpha_scale) {
  MS_CHECK(eps > 0.0 && eps < 1.0);
  // Split the error budget: (1+eps/3)^2 <= 1+eps for eps < 1.
  const double stage_eps = eps / 3.0;
  ComposedSparsifier out;
  out.delta =
      SparsifierParams::practical(beta, stage_eps, delta_scale).delta;
  out.random_stage = sparsify(g, out.delta, rng());
  // Observation 2.12: arboricity(G_Δ) <= 2Δ (with the degree-2Δ tweak the
  // constant stays 2: every vertex contributes at most 2Δ marks).
  out.delta_alpha =
      delta_alpha_for(2.0 * static_cast<double>(out.delta), stage_eps,
                      alpha_scale);
  out.bounded_stage = degree_sparsifier(out.random_stage, out.delta_alpha);
  return out;
}

}  // namespace matchsparse
