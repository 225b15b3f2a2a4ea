// matchsparse — public API.
//
// Implements "A Unified Sparsification Approach for Matching Problems in
// Graphs of Bounded Neighborhood Independence" (Milenković & Solomon,
// SPAA 2020). The one-line summary: on a graph with neighborhood
// independence number β, letting every vertex keep Δ = Θ((β/ε)·log(1/ε))
// random incident edges yields a (1+ε)-matching sparsifier w.h.p.; compute
// the matching there instead of on the full graph.
//
// Headline entry point: approx_maximum_matching(). The sequential path is
// Theorem 3.1 (sublinear time in the adjacency-array model); the
// distributed and dynamic applications live in dist/pipeline.hpp and
// dynamic/window_matcher.hpp and are re-exported by this header.
#pragma once

#include <string>

#include "dist/pipeline.hpp"
#include "dynamic/window_matcher.hpp"
#include "graph/beta.hpp"
#include "graph/graph.hpp"
#include "guard/guard.hpp"
#include "matching/bounded_aug.hpp"
#include "matching/matching.hpp"
#include "sparsify/pipeline.hpp"
#include "sparsify/sparsifier.hpp"

namespace matchsparse {

/// Library version string.
const char* version();

struct ApproxMatchingConfig {
  /// Neighborhood independence bound of the input. If unknown, measure it
  /// with neighborhood_independence() or use a family bound (line graphs:
  /// 2, unit-disk: 5, k-diversity: k).
  VertexId beta = 2;
  /// Target approximation: the result is a (1+eps)-approximate MCM w.h.p.
  double eps = 0.2;
  /// RNG seed; identical seeds reproduce identical outputs.
  std::uint64_t seed = 0x6d617473u;
  /// Scale on the theoretical Δ constant (20 in the paper's proof, ~2 in
  /// practice; see EXPERIMENTS.md E1 for the measured safety margin).
  double delta_scale = 2.0;
  /// Use the paper's proof constant (delta_scale is ignored).
  bool theoretical_delta = false;
  /// When the sparsifier turns out bipartite, use phase-truncated
  /// Hopcroft–Karp (the exact black box the paper cites, with a firm
  /// O(m'/ε) bound) instead of the general bounded-length matcher.
  bool bipartite_fast_path = true;
  /// Lanes that build G_Δ (sparsify): 1 (default) runs on the calling
  /// thread, k > 1 runs k lanes on the shared default_pool(), 0 one lane
  /// per pool worker. Every vertex draws from its own substream
  /// mix64(seed, v), so `threads` sets how many lanes build G_Δ and never
  /// which edges it holds. No build runs when max degree <= 2Δ
  /// (sparsifier_is_graph): G_Δ is then G. The matcher on G_Δ is serial
  /// at every value.
  std::size_t threads = 1;
};

struct ApproxMatchingResult {
  Matching matching;
  VertexId delta = 0;              // marks per vertex used
  EdgeIndex sparsifier_edges = 0;  // |E(G_Δ)|
  std::uint64_t probes = 0;        // adjacency entries read to build G_Δ
  double sparsify_seconds = 0.0;   // end-to-end G_Δ construction
  double match_seconds = 0.0;
};

/// Theorem 3.1: computes a (1+eps)-approximate maximum matching in
/// O(n·(β/ε²)·log(1/ε)) time by matching on the sparsifier G_Δ. The time
/// bound is deterministic; the approximation factor holds w.h.p.
///
/// When sparsifier_is_graph(g, cfg), G_Δ is g: the sparsify stage is the
/// identity step alone (its "sparsify.identity" cancellation point,
/// span, counters and stats, no copy and no memory charge) and the
/// matcher runs on g itself.
///
/// `prebuilt`, when non-null, must be the graph build_matching_sparsifier
/// (g, cfg) would return — the caller vouches for the identity (the serve
/// daemon's sparsifier cache keys on exactly (source, Δ, seed)).
/// The sparsify stage is then skipped and the matching stage runs on
/// *prebuilt, producing the same matching as the cold call; probes and
/// sparsify_seconds report 0 for the skipped stage.
ApproxMatchingResult approx_maximum_matching(const Graph& g,
                                             const ApproxMatchingConfig& cfg,
                                             const Graph* prebuilt = nullptr);

/// True when G_Δ is g itself: with g.max_degree() <= 2Δ every vertex
/// keeps its whole neighbourhood (the §3.1 tweak), so any builder would
/// return g bit for bit. The one rule behind approx_maximum_matching,
/// build_matching_sparsifier and the serve daemon's identity regime.
bool sparsifier_is_graph(const Graph& g, const ApproxMatchingConfig& cfg);

/// Builds the sparsifier G_Δ with parameters derived from (beta, eps)
/// exactly as approx_maximum_matching would; the one G_Δ builder behind
/// approx_maximum_matching and the serve daemon's MATCH and SPARSIFY.
///
/// When sparsifier_is_graph(g, cfg) the result is a copy of g, made in
/// O(n + m) with no marking pass, for callers that want G_Δ as an
/// object; `stats` reports identity = true with probes 0, marked 2m and
/// edges m. The copy is a cancellation point ("sparsify.identity") and
/// charges its CSR bytes to the active guard, like the build it
/// replaces. Otherwise it is sparsify(g, Δ, cfg.seed, cfg.threads), the
/// same graph at every lane count.
Graph build_matching_sparsifier(const Graph& g,
                                const ApproxMatchingConfig& cfg,
                                SparsifierStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Guarded execution: deadlines, memory budgets, graceful degradation
// (DESIGN.md §12). approx_maximum_matching_guarded never throws on
// resource exhaustion — it walks a degradation ladder and reports what it
// achieved in a RunOutcome instead.
// ---------------------------------------------------------------------------

struct RunLimits {
  /// Hard wall-clock ceiling per attempt window, in milliseconds;
  /// 0 = unlimited, and so is a value the clock cannot reach (+inf,
  /// 1e300). The ε-coarsening rungs share this window; the greedy
  /// fallback gets one fresh window of its own, so the guarded call
  /// returns within 2× this deadline in the worst case.
  double deadline_ms = 0.0;
  /// Fraction of the deadline granted to the full-quality first attempt
  /// when degradation is enabled; in (0, 1]. With 0.5 and a 100 ms
  /// deadline, the ε-ladder starts after 50 ms instead of burning the
  /// whole window on an attempt that was never going to finish.
  double soft_deadline_frac = 0.5;
  /// Byte cap on concurrently charged big arrays (CSR, mark buffers,
  /// the matchers' working arrays); 0 = unlimited. See
  /// guard::MemoryBudget.
  std::uint64_t mem_budget_bytes = 0;
  /// What to trade when a limit trips (the ladder, Thm 2.1):
  ///   kOff     — no retries: report kFailed.
  ///   kEps     — coarsen ε (halving Δ per doubling) and retry.
  ///   kMaximal — kEps, then fall back to greedy maximal matching
  ///              (2-approx when it completes; Lemma 2.2-style floor
  ///              n'/(2β+2), see maximal_matching_floor()).
  enum class Degrade { kOff, kEps, kMaximal };
  Degrade degrade = Degrade::kMaximal;
  /// Maximum ε-coarsening retries before the maximal fallback.
  int max_eps_retries = 3;
  /// Test hook, applied to the FIRST attempt only: trip a cancellation on
  /// the N-th guard poll. See guard::RunGuard::Limits.
  std::uint64_t cancel_after_polls = 0;
};

enum class RunStatus {
  kOk,               // full-quality result within limits
  kDegradedEps,      // finished after coarsening ε — guarantee = 1+ε_eff
  kDegradedMaximal,  // greedy maximal fallback — guarantee = 2
  kCancelled,        // external cancel(); result.matching may be empty
  kFailed,           // limits exhausted and degradation off/exhausted
};

const char* to_string(RunStatus status);

struct RunOutcome {
  RunStatus status = RunStatus::kOk;
  /// Which limit tripped first (kNone when status == kOk).
  guard::StopReason stop_reason = guard::StopReason::kNone;
  /// The matching and its pipeline telemetry. Always a VALID matching of
  /// g (possibly empty when cancelled early); `partial` below says
  /// whether the advertised guarantee applies.
  ApproxMatchingResult result;
  /// The ε actually achieved by the attempt that produced `result`.
  /// 1.0 for the maximal fallback (a completed maximal matching is a
  /// 2 = (1+1)-approximation).
  double eps_effective = 0.0;
  /// Multiplicative approximation guarantee of result.matching:
  /// 1+ε_eff for sparsifier runs (w.h.p.), 2 for a completed maximal
  /// fallback, 0 when partial (no guarantee).
  double guarantee = 0.0;
  /// Provable size floor for result.matching given cfg.beta (Lem 2.2 for
  /// maximum-matching runs, the n'/(2β+2) maximal floor for the
  /// fallback); 0 when partial.
  VertexId size_floor = 0;
  /// True when even the last ladder rung was cut short: result.matching
  /// is still valid but carries no approximation guarantee.
  bool partial = false;
  /// Peak concurrently charged bytes across all attempts (telemetry;
  /// see guard::MemoryBudget::peak()).
  std::uint64_t mem_peak_bytes = 0;
  /// Guard polls observed across all attempts. For a serial single-rung
  /// run this is a deterministic function of (g, cfg) — the cancellation
  /// fuzz uses it to place cancel_after_polls trip points. A run the
  /// cancel_after_polls hook stops reports exactly the trip point, with
  /// parallel passes too (guard::RunGuard::polls()).
  std::uint64_t polls = 0;
  /// Human-readable trail of what tripped and what the ladder did.
  std::string detail;

  bool ok() const { return status == RunStatus::kOk; }
  bool degraded() const {
    return status == RunStatus::kDegradedEps ||
           status == RunStatus::kDegradedMaximal;
  }
};

/// approx_maximum_matching under a run guard. Installs a guard::RunGuard
/// scoped to each attempt, catches guard::Interrupted, and walks the
/// degradation ladder per `limits`. Never throws for deadline/budget/
/// cancellation; invalid configuration still MS_CHECKs. With default
/// limits (no deadline, no budget) the output matching is bit-identical
/// to approx_maximum_matching(g, cfg).
///
/// Each rung guard is parent-linked to the guard active at entry, so
/// cancelling an enclosing RunContext stops the ladder at its next poll.
///
/// `prebuilt` (same contract as approx_maximum_matching) feeds ONLY the
/// full-quality first rung — coarsened retries change Δ, so they rebuild
/// from scratch. A cache-hit serve request therefore skips the build
/// stage entirely when rung 0 completes, and degrades identically to a
/// cold run when it doesn't.
RunOutcome approx_maximum_matching_guarded(const Graph& g,
                                           const ApproxMatchingConfig& cfg,
                                           const RunLimits& limits = {},
                                           const Graph* prebuilt = nullptr);

}  // namespace matchsparse
