#include "core/api.hpp"

#include <algorithm>

#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace matchsparse {

const char* version() { return "1.0.0"; }

namespace {

VertexId delta_for(const ApproxMatchingConfig& cfg) {
  return cfg.theoretical_delta
             ? SparsifierParams::theoretical(cfg.beta, cfg.eps).delta
             : SparsifierParams::practical(cfg.beta, cfg.eps,
                                           cfg.delta_scale)
                   .delta;
}

/// The identity step of G_Δ = G (sparsifier_is_graph): a cancellation
/// point with the build's span, counters and stats, so deadlines and
/// cancels trip here as they would in a build. With `copy` non-null it
/// also copies g into *copy and charges the copy's CSR bytes;
/// approx_maximum_matching passes nullptr and matches on g itself.
void identity_step(const Graph& g, SparsifierStats* stats, Graph* copy) {
  WallTimer timer;
  const obs::Span span("sparsify.identity");
  guard::check("sparsify.identity");
  if (copy != nullptr) {
    const guard::MemCharge charge(
        (static_cast<std::uint64_t>(g.num_vertices()) + 1) *
                sizeof(EdgeIndex) +
            2 * static_cast<std::uint64_t>(g.num_edges()) * sizeof(VertexId),
        "sparsifier identity copy");
    *copy = g;
  }
  const std::uint64_t marked = 2 * static_cast<std::uint64_t>(g.num_edges());
  obs::counter("sparsify.identity").add(1);
  // Every edge counts as marked from both ends; no entry was read, and
  // the zero still registers the probe counter in this run's metrics.
  obs::counter("sparsify.marks.total").add(marked);
  obs::counter("sparsify.probes.total").add(0);
  if (stats != nullptr) {
    *stats = SparsifierStats{};
    stats->identity = true;
    stats->marked = marked;
    stats->edges = g.num_edges();
    stats->total_seconds = timer.seconds();
    stats->build_seconds = stats->total_seconds;
  }
}

}  // namespace

bool sparsifier_is_graph(const Graph& g, const ApproxMatchingConfig& cfg) {
  return g.max_degree() <= 2 * static_cast<std::uint64_t>(delta_for(cfg));
}

Graph build_matching_sparsifier(const Graph& g,
                                const ApproxMatchingConfig& cfg,
                                SparsifierStats* stats) {
  if (sparsifier_is_graph(g, cfg)) {
    Graph copy;
    identity_step(g, stats, &copy);
    return copy;
  }
  return sparsify(g, delta_for(cfg), cfg.seed, cfg.threads, stats);
}

ApproxMatchingResult approx_maximum_matching(
    const Graph& g, const ApproxMatchingConfig& cfg, const Graph* prebuilt) {
  MS_CHECK_MSG(cfg.eps > 0.0 && cfg.eps < 1.0, "need 0 < eps < 1");
  ApproxMatchingResult result;
  SparsifierStats stats;
  Graph built;
  const Graph* sparsifier = prebuilt;
  if (sparsifier == nullptr) {
    const obs::Span span("pipeline.sparsify");
    if (sparsifier_is_graph(g, cfg)) {
      identity_step(g, &stats, nullptr);
      sparsifier = &g;
    } else {
      built = build_matching_sparsifier(g, cfg, &stats);
      sparsifier = &built;
    }
  }
  const Graph& g_delta = *sparsifier;
  result.delta = delta_for(cfg);
  result.sparsifier_edges = g_delta.num_edges();
  result.probes = stats.probes;
  result.sparsify_seconds = stats.total_seconds;

  WallTimer timer;
  {
    const obs::Span span("pipeline.match");
    if (cfg.bipartite_fast_path && two_color(g_delta).bipartite) {
      result.matching = hopcroft_karp(g_delta, hk_phases_for_eps(cfg.eps));
    } else {
      result.matching = approx_mcm(g_delta, cfg.eps);
    }
  }
  result.match_seconds = timer.seconds();

  // Obs 2.10 density check: |E(G_Δ)| <= 4·|MCM|·Δ, using the computed
  // (1+ε)-approximate matching for |MCM| (an under-estimate of |MCM|, so
  // the published ratio is an over-estimate — conservative). Gauge < 1
  // means the bound holds with room to spare.
  const double matched = static_cast<double>(result.matching.size());
  if (matched > 0.0 && result.delta > 0) {
    obs::gauge("sparsify.edges.vs_bound")
        .set(static_cast<double>(result.sparsifier_edges) /
             (4.0 * matched * static_cast<double>(result.delta)));
  }
  return result;
}

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kDegradedEps:
      return "degraded-eps";
    case RunStatus::kDegradedMaximal:
      return "degraded-maximal";
    case RunStatus::kCancelled:
      return "cancelled";
    case RunStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

namespace {

/// Greedy maximal matching with non-throwing cancellation polls, so a
/// tripped guard yields the partial matching built so far instead of
/// unwinding. Mirrors greedy_maximal_matching(g) exactly when no guard
/// trips (same CSR scan order ⇒ same output).
Matching greedy_maximal_partial(const Graph& g, bool* completed) {
  Matching m(g.num_vertices());
  *completed = true;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if ((u & 0xFF) == 0 && guard::poll()) {
      *completed = false;
      return m;
    }
    if (m.is_matched(u)) continue;
    for (VertexId v : g.neighbors(u)) {
      if (!m.is_matched(v)) {
        m.match(u, v);
        break;
      }
    }
  }
  return m;
}

void append_detail(std::string& detail, const std::string& line) {
  if (!detail.empty()) detail += "; ";
  detail += line;
}

}  // namespace

RunOutcome approx_maximum_matching_guarded(const Graph& g,
                                           const ApproxMatchingConfig& cfg,
                                           const RunLimits& limits,
                                           const Graph* prebuilt) {
  MS_CHECK_MSG(cfg.eps > 0.0 && cfg.eps < 1.0, "need 0 < eps < 1");
  MS_CHECK_MSG(limits.soft_deadline_frac > 0.0 &&
                   limits.soft_deadline_frac <= 1.0,
               "need 0 < soft_deadline_frac <= 1");
  const obs::Span span("pipeline.guarded");
  // A cancelling caller (serve CANCEL frame, daemon drain) trips the
  // guard of the ENCLOSING context, which the rung guards below shadow
  // while installed; parent-linking each rung guard propagates the stop.
  guard::RunGuard* enclosing = guard::active();
  RunOutcome outcome;
  WallTimer timer;

  // Milliseconds left of the shared attempt window (the ε rungs share it;
  // the maximal fallback gets a fresh window — total <= 2x deadline).
  const auto remaining_ms = [&]() -> double {
    if (limits.deadline_ms <= 0.0) return 0.0;  // unlimited
    return limits.deadline_ms - timer.seconds() * 1e3;
  };

  const bool can_degrade = limits.degrade != RunLimits::Degrade::kOff;
  double eps = cfg.eps;
  for (int rung = 0; rung <= limits.max_eps_retries; ++rung) {
    double attempt_ms = remaining_ms();
    if (limits.deadline_ms > 0.0 && attempt_ms <= 0.0) break;  // window spent
    if (rung == 0 && can_degrade && limits.deadline_ms > 0.0) {
      // Soft deadline: cap the full-quality attempt so the ladder keeps
      // part of the window for its coarsened retries.
      attempt_ms *= limits.soft_deadline_frac;
    }
    guard::RunGuard::Limits gl;
    gl.deadline_ms = attempt_ms;
    gl.mem_budget_bytes = limits.mem_budget_bytes;
    if (rung == 0) gl.cancel_after_polls = limits.cancel_after_polls;
    guard::RunGuard run_guard(gl);
    run_guard.set_parent(enclosing);
    try {
      ApproxMatchingConfig attempt_cfg = cfg;
      attempt_cfg.eps = eps;
      {
        const guard::ScopedGuard installed(run_guard);
        outcome.result = approx_maximum_matching(
            g, attempt_cfg, rung == 0 ? prebuilt : nullptr);
      }
      outcome.status = rung == 0 ? RunStatus::kOk : RunStatus::kDegradedEps;
      outcome.eps_effective = eps;
      outcome.guarantee = 1.0 + eps;
      outcome.size_floor =
          maximum_matching_floor(g.num_non_isolated(), cfg.beta);
      outcome.mem_peak_bytes = std::max(outcome.mem_peak_bytes,
                                        run_guard.memory().peak());
      outcome.polls += run_guard.polls();
      if (rung > 0) {
        append_detail(outcome.detail,
                      "completed with coarsened eps=" + std::to_string(eps));
      }
      return outcome;
    } catch (const guard::Interrupted& e) {
      outcome.stop_reason = e.reason();
      outcome.mem_peak_bytes = std::max(outcome.mem_peak_bytes,
                                        run_guard.memory().peak());
      outcome.polls += run_guard.polls();
      append_detail(outcome.detail, e.what());
      if (e.reason() == guard::StopReason::kCancelled) {
        // External cancellation is a request to stop, never to retry.
        outcome.status = RunStatus::kCancelled;
        outcome.result = ApproxMatchingResult{};
        outcome.result.matching = Matching(g.num_vertices());
        outcome.partial = true;
        return outcome;
      }
      if (!can_degrade) break;
      if (eps >= 0.95) break;  // ε exhausted — on to the fallback
      eps = std::min(2.0 * eps, 0.95);
      // Per-call lookup — obs::counter() is ambient since §14, so the
      // rung's degradation event lands in the calling request's registry.
      obs::counter("guard.degrade.eps").add(1);
      append_detail(outcome.detail,
                    "retrying with eps=" + std::to_string(eps));
    }
  }

  if (limits.degrade != RunLimits::Degrade::kMaximal) {
    outcome.status = RunStatus::kFailed;
    outcome.result = ApproxMatchingResult{};
    outcome.result.matching = Matching(g.num_vertices());
    outcome.partial = true;
    append_detail(outcome.detail, "degradation ladder exhausted");
    return outcome;
  }

  // Maximal fallback: O(n + m) greedy scan on the ORIGINAL graph under a
  // fresh full-deadline guard, polled (never thrown) so it can hand back
  // whatever it matched when even the scan does not fit the window.
  obs::counter("guard.degrade.maximal").add(1);
  guard::RunGuard::Limits gl;
  gl.deadline_ms = limits.deadline_ms;
  gl.mem_budget_bytes = limits.mem_budget_bytes;
  guard::RunGuard run_guard(gl);
  run_guard.set_parent(enclosing);
  bool completed = false;
  WallTimer fallback_timer;
  {
    const guard::ScopedGuard installed(run_guard);
    const obs::Span fallback_span("pipeline.fallback.maximal");
    outcome.result = ApproxMatchingResult{};
    outcome.result.matching = greedy_maximal_partial(g, &completed);
  }
  outcome.result.match_seconds = fallback_timer.seconds();
  outcome.status = RunStatus::kDegradedMaximal;
  outcome.eps_effective = 1.0;  // maximal ⇒ 2 = (1+1)-approximation
  outcome.partial = !completed;
  outcome.guarantee = completed ? 2.0 : 0.0;
  outcome.size_floor =
      completed ? maximal_matching_floor(g.num_non_isolated(), cfg.beta) : 0;
  outcome.mem_peak_bytes =
      std::max(outcome.mem_peak_bytes, run_guard.memory().peak());
  outcome.polls += run_guard.polls();
  append_detail(outcome.detail, completed
                                    ? "greedy maximal fallback completed"
                                    : "greedy maximal fallback cut short");
  return outcome;
}

}  // namespace matchsparse
