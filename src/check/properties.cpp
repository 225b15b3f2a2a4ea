// The built-in differential properties: every implementation in the
// repository cross-checked against its oracle (DESIGN.md §10 holds the
// full implementation → oracle table).
//
// Writing rules for a property:
//   - deterministic in (graph, config): all randomness from config.seed;
//   - assert only *deterministic* guarantees (validity, maximality,
//     subgraph monotonicity, replay identity, thread/machine-count
//     invariance, fault-schedule independence) — never a w.h.p. ratio,
//     which would hand the shrinker a flaky predicate;
//   - skip (don't fail) cells the oracle cannot afford, with a reason;
//   - one-line failure messages: they land in ndjson logs and
//     counterexample headers verbatim.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "check/property.hpp"
#include "core/api.hpp"
#include "guard/context.hpp"
#include "serve/client.hpp"
#include "serve/diffcheck.hpp"
#include "serve/server.hpp"
#include "dist/engine.hpp"
#include "dist/pipeline.hpp"
#include "dist/sparsifier_protocols.hpp"
#include "dynamic/dyn_graph.hpp"
#include "dynamic/dyn_sparsifier.hpp"
#include "gen/generators.hpp"
#include "matching/assadi_solomon.hpp"
#include "matching/blossom.hpp"
#include "matching/bounded_aug.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/verify.hpp"
#include "sparsify/sparsifier.hpp"
#include "stream/edge_stream.hpp"
#include "stream/mpc.hpp"
#include "stream/stream_sparsifier.hpp"
#include "util/rng.hpp"

namespace matchsparse::check {

namespace {

using Result = PropertyResult;

std::string sz(std::uint64_t v) { return std::to_string(v); }

/// Oracle affordability guard: blossom is O(n·m) and runs in nearly every
/// property, so cap the cells it sees.
constexpr VertexId kMaxOracleVertices = 256;

/// Sanity shared by every matcher property.
Result check_valid(const Graph& g, const Matching& m, const char* who) {
  if (m.num_vertices() != g.num_vertices()) {
    return Result::fail(std::string(who) + ": matching over " +
                        sz(m.num_vertices()) + " vertices, graph has " +
                        sz(g.num_vertices()));
  }
  if (!m.is_valid(g)) {
    return Result::fail(std::string(who) +
                        ": invalid matching (non-edge or asymmetric mates)");
  }
  return Result::pass();
}

/// deg_H(v) for every v of a subgraph given as an edge list.
std::vector<VertexId> degrees_of(VertexId n, const EdgeList& edges) {
  std::vector<VertexId> deg(n, 0);
  for (const Edge& e : edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  return deg;
}

/// Shared check for every G_Δ realisation (serial, parallel, streaming,
/// distributed): marked edges are real edges, each vertex keeps at least
/// min(deg, Δ) incident edges (its own marks), and low-degree vertices
/// (deg <= 2Δ, when `tweak` applies) keep their whole neighborhood.
Result check_sparsifier_structure(const Graph& g, const EdgeList& edges,
                                  VertexId delta, bool tweak,
                                  const char* who) {
  for (const Edge& e : edges) {
    if (e.u >= g.num_vertices() || e.v >= g.num_vertices() ||
        !g.has_edge(e.u, e.v)) {
      return Result::fail(std::string(who) + ": edge (" + sz(e.u) + "," +
                          sz(e.v) + ") not in the input graph");
    }
  }
  const std::vector<VertexId> deg = degrees_of(g.num_vertices(), edges);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId want = std::min(g.degree(v), delta);
    if (deg[v] < want) {
      return Result::fail(std::string(who) + ": vertex " + sz(v) +
                          " keeps " + sz(deg[v]) + " < min(deg=" +
                          sz(g.degree(v)) + ", delta=" + sz(delta) + ")");
    }
    if (tweak && g.degree(v) <= 2 * delta && deg[v] != g.degree(v)) {
      return Result::fail(std::string(who) + ": low-degree vertex " + sz(v) +
                          " lost edges (2-delta tweak violated)");
    }
  }
  return Result::pass();
}

/// Derives a deterministic lossy FaultPlan for the fault-injection
/// properties from the cell's seed: moderate drop/dup/delay plus rare
/// crashes, ceasing after a fixed horizon so quiescence is reachable.
dist::FaultPlan fault_plan_from(std::uint64_t seed) {
  Rng rng(mix64(seed, 0xfa017ULL));
  dist::FaultPlan plan;
  plan.drop_prob = 0.05 + 0.10 * rng.uniform();
  plan.dup_prob = 0.05 * rng.uniform();
  plan.delay_prob = 0.05 + 0.10 * rng.uniform();
  plan.max_extra_delay = 1 + rng.below(3);
  plan.crash_prob = 0.01 * rng.uniform();
  plan.crash_duration = 2 + rng.below(3);
  plan.fault_rounds = 24;
  return plan;
}

// ---------------------------------------------------------------------------
// Matchers vs the exact blossom oracle.
// ---------------------------------------------------------------------------

Result prop_blossom_vs_brute_force(const Graph& g, const PropertyConfig&) {
  if (g.num_vertices() > 10 || g.num_edges() > 28) {
    return Result::skip("brute force affordable only for tiny graphs");
  }
  const Matching m = blossom_mcm(g);
  if (Result r = check_valid(g, m, "blossom"); r.failed()) return r;
  const VertexId exact = mcm_size_brute_force(g);
  if (m.size() != exact) {
    return Result::fail("blossom=" + sz(m.size()) + " brute=" + sz(exact));
  }
  return Result::pass();
}

Result prop_greedy_maximal(const Graph& g, const PropertyConfig& cfg) {
  if (g.num_vertices() > kMaxOracleVertices) {
    return Result::skip("blossom oracle capped");
  }
  const Matching m = greedy_maximal_matching(g);
  if (Result r = check_valid(g, m, "greedy"); r.failed()) return r;
  if (!m.is_maximal(g)) return Result::fail("greedy matching not maximal");

  Rng rng(cfg.seed);
  const Matching shuffled = greedy_maximal_matching(g, rng);
  if (Result r = check_valid(g, shuffled, "greedy[shuffled]"); r.failed()) {
    return r;
  }
  if (!shuffled.is_maximal(g)) {
    return Result::fail("shuffled greedy matching not maximal");
  }

  const Matching on_list = greedy_on_edge_list(g.num_vertices(),
                                               g.edge_list());
  if (Result r = check_valid(g, on_list, "greedy[edge-list]"); r.failed()) {
    return r;
  }
  if (!on_list.is_maximal(g)) {
    return Result::fail("edge-list greedy matching not maximal");
  }

  const VertexId opt = blossom_mcm(g).size();
  if (2 * m.size() < opt) {
    return Result::fail("greedy=" + sz(m.size()) + " below opt/2, opt=" +
                        sz(opt));
  }
  return Result::pass();
}

Result prop_approx_mcm_vs_blossom(const Graph& g, const PropertyConfig& cfg) {
  if (g.num_vertices() > kMaxOracleVertices) {
    return Result::skip("blossom oracle capped");
  }
  const Matching m = approx_mcm(g, cfg.eps);
  if (Result r = check_valid(g, m, "approx_mcm"); r.failed()) return r;
  const VertexId opt = blossom_mcm(g).size();
  if (m.size() > opt) {
    return Result::fail("approx=" + sz(m.size()) + " exceeds opt=" + sz(opt));
  }
  // Folklore lemma with k = ceil(1/eps): |M| >= k/(k+1)·opt, an exact
  // integer bound (no float slop).
  const auto k = static_cast<std::uint64_t>((path_cap_for_eps(cfg.eps) + 1) / 2);
  if (static_cast<std::uint64_t>(m.size()) * (k + 1) <
      static_cast<std::uint64_t>(opt) * k) {
    return Result::fail("approx=" + sz(m.size()) + " below k/(k+1)*opt, k=" +
                        sz(k) + " opt=" + sz(opt));
  }
  return Result::pass();
}

Result prop_hopcroft_karp_vs_blossom(const Graph& g, const PropertyConfig&) {
  if (g.num_vertices() > kMaxOracleVertices) {
    return Result::skip("blossom oracle capped");
  }
  if (!two_color(g).bipartite) return Result::skip("graph not bipartite");
  const Matching m = hopcroft_karp(g);
  if (Result r = check_valid(g, m, "hopcroft_karp"); r.failed()) return r;
  const VertexId opt = blossom_mcm(g).size();
  if (m.size() != opt) {
    return Result::fail("hk=" + sz(m.size()) + " blossom=" + sz(opt));
  }
  // Phase-truncated run obeys its (1 + 1/phases) guarantee.
  const int phases = 2;
  const Matching trunc = hopcroft_karp(g, phases);
  if (static_cast<std::uint64_t>(trunc.size()) * (phases + 1) <
      static_cast<std::uint64_t>(opt) * phases) {
    return Result::fail("truncated hk=" + sz(trunc.size()) +
                        " below phase guarantee, opt=" + sz(opt));
  }
  return Result::pass();
}

Result prop_assadi_solomon_maximal(const Graph& g, const PropertyConfig& cfg) {
  if (g.num_vertices() > kMaxOracleVertices) {
    return Result::skip("repair-scan cost capped");
  }
  Rng rng(cfg.seed);
  AssadiSolomonOptions opt;
  opt.beta = std::max<VertexId>(1, cfg.beta);
  const AssadiSolomonResult res = assadi_solomon_maximal(g, rng, opt);
  if (Result r = check_valid(g, res.matching, "assadi_solomon"); r.failed()) {
    return r;
  }
  if (!res.matching.is_maximal(g)) {
    return Result::fail("assadi_solomon matching not maximal after repair");
  }
  if (res.repair_probes > res.probes) {
    return Result::fail("probe ledger inconsistent: repair=" +
                        sz(res.repair_probes) + " > total=" + sz(res.probes));
  }
  return Result::pass();
}

Result prop_certified_factor_vs_blossom(const Graph& g,
                                        const PropertyConfig&) {
  // The verify.cpp lemma machinery is itself an oracle — validate it
  // against blossom on small graphs (the alternating DFS is exponential).
  if (g.num_vertices() > 24 || g.num_edges() > 80) {
    return Result::skip("exhaustive path search affordable only when small");
  }
  const Matching m = greedy_maximal_matching(g);
  const double factor = certified_approximation_factor(g, m, 3);
  const VertexId opt = blossom_mcm(g).size();
  if (factor < 1.0) return Result::fail("certified factor below 1");
  // factor upper-bounds the true ratio opt/|m| (with 1e-9 float slack).
  if (static_cast<double>(opt) >
      factor * static_cast<double>(m.size()) + 1e-9) {
    return Result::fail("certified factor " + std::to_string(factor) +
                        " does not cover opt=" + sz(opt) + " vs m=" +
                        sz(m.size()));
  }
  return Result::pass();
}

// ---------------------------------------------------------------------------
// Sparsifier realisations vs each other and vs subgraph monotonicity.
// ---------------------------------------------------------------------------

Result prop_serial_sparsifier(const Graph& g, const PropertyConfig& cfg) {
  const VertexId delta = std::max<VertexId>(1, cfg.delta);
  const EdgeList a = sparsify_edges(g, delta, cfg.seed);
  const EdgeList b = sparsify_edges(g, delta, cfg.seed);
  if (a != b) return Result::fail("sparsify_edges not replayable from seed");
  if (Result r = check_sparsifier_structure(g, a, delta, /*tweak=*/true,
                                            "sparsify");
      r.failed()) {
    return r;
  }
  if (g.num_vertices() <= kMaxOracleVertices) {
    // G_Δ ⊆ G, so mcm(G_Δ) <= mcm(G) deterministically.
    const Graph gd = Graph::from_edges(g.num_vertices(), a);
    const VertexId sub = blossom_mcm(gd).size();
    const VertexId full = blossom_mcm(g).size();
    if (sub > full) {
      return Result::fail("mcm(G_delta)=" + sz(sub) + " exceeds mcm(G)=" +
                          sz(full));
    }
  }
  return Result::pass();
}

Result prop_parallel_sparsifier_thread_invariance(const Graph& g,
                                                  const PropertyConfig& cfg) {
  const VertexId delta = std::max<VertexId>(1, cfg.delta);
  // sparsify must build the graph of sparsify_edges' list at every lane
  // count (0 = the pool's size).
  const EdgeList base = sparsify_edges(g, delta, cfg.seed);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8},
                                  std::size_t{0}, cfg.threads}) {
    if (sparsify(g, delta, cfg.seed, lanes).edge_list() != base) {
      return Result::fail("sparsify differs from sparsify_edges at lanes=" +
                          sz(lanes));
    }
  }
  return check_sparsifier_structure(g, base, delta, /*tweak=*/true,
                                    "sparsify");
}

// ---------------------------------------------------------------------------
// Distributed protocols: lossless vs lossy, and the pipeline's safety.
// ---------------------------------------------------------------------------

Result prop_dist_sparsifier_fault_independence(const Graph& g,
                                               const PropertyConfig& cfg) {
  if (g.num_vertices() < 2 || g.num_vertices() > 64) {
    return Result::skip("network simulation sized for 2..64 nodes");
  }
  const VertexId delta = std::max<VertexId>(1, cfg.delta);
  const dist::FaultPlan plan = fault_plan_from(cfg.seed);

  // Unicast variant: the marked edge set must be a pure function of the
  // node substreams, i.e. independent of the fault schedule.
  dist::Network clean(g, cfg.seed);
  dist::RandomSparsifierProtocol p_clean(g.num_vertices(), delta);
  const dist::TrafficStats s_clean = clean.run(p_clean, 8);
  if (!s_clean.completed) {
    return Result::fail("lossless random sparsifier did not complete");
  }
  if (Result r = check_sparsifier_structure(g, p_clean.edges(), delta,
                                            /*tweak=*/true, "dist sparsifier");
      r.failed()) {
    return r;
  }

  dist::Network faulty(g, cfg.seed, plan);
  dist::RandomSparsifierProtocol p_faulty(g.num_vertices(), delta);
  const dist::TrafficStats s_faulty = faulty.run(p_faulty, 768);
  if (!s_faulty.completed) {
    return Result::fail("lossy random sparsifier did not quiesce in budget");
  }
  if (p_clean.edges() != p_faulty.edges()) {
    return Result::fail("random sparsifier edges depend on fault schedule");
  }

  // Broadcast variant (the PR-2 await-set repro path).
  dist::Network bclean(g, cfg.seed);
  dist::BroadcastSparsifierProtocol b_clean(g.num_vertices(), delta);
  if (!bclean.run(b_clean, 8).completed) {
    return Result::fail("lossless broadcast sparsifier did not complete");
  }
  dist::Network bfaulty(g, cfg.seed, plan);
  dist::BroadcastSparsifierProtocol b_faulty(g.num_vertices(), delta);
  if (!bfaulty.run(b_faulty, 768).completed) {
    return Result::fail("lossy broadcast sparsifier did not quiesce");
  }
  if (b_clean.edges() != b_faulty.edges()) {
    return Result::fail("broadcast sparsifier edges depend on fault schedule");
  }
  return Result::pass();
}

Result prop_dist_pipeline_safety(const Graph& g, const PropertyConfig& cfg) {
  if (g.num_vertices() < 2 || g.num_vertices() > 40) {
    return Result::skip("pipeline simulation sized for 2..40 nodes");
  }
  dist::DistributedMatchingOptions opt;
  opt.beta = std::max<VertexId>(1, cfg.beta);
  opt.eps = std::max(cfg.eps, 0.25);  // bound the augmenting budget
  opt.congest_augmenting = (cfg.seed & 1) != 0;
  opt.fault_round_slack = 768;

  // Lossless run: must complete, and the stage-4 matching can only extend
  // the stage-3 maximal matching.
  const auto clean = dist::distributed_approx_matching(g, opt, cfg.seed);
  if (Result r = check_valid(g, clean.matching, "dist pipeline"); r.failed()) {
    return r;
  }
  if (!clean.all_stages_completed()) {
    return Result::fail("lossless pipeline left a stage incomplete");
  }
  if (clean.matching.size() < clean.maximal_stage_matching.size()) {
    return Result::fail("augmenting stage shrank the matching: " +
                        sz(clean.matching.size()) + " < " +
                        sz(clean.maximal_stage_matching.size()));
  }
  if (!clean.maximal_stage_matching.is_valid(g)) {
    return Result::fail("stage-3 matching invalid on the input graph");
  }
  const VertexId opt_size = blossom_mcm(g).size();
  if (clean.matching.size() > opt_size) {
    return Result::fail("pipeline matching exceeds exact optimum");
  }

  // Lossy run: safety under ANY schedule — output is a valid matching,
  // never a torn one; size can degrade but not exceed the optimum.
  dist::DistributedMatchingOptions lossy = opt;
  lossy.faults = fault_plan_from(cfg.seed);
  const auto faulty = dist::distributed_approx_matching(g, lossy, cfg.seed);
  if (Result r = check_valid(g, faulty.matching, "dist pipeline[faulty]");
      r.failed()) {
    return r;
  }
  if (faulty.matching.size() > opt_size) {
    return Result::fail("faulty pipeline matching exceeds exact optimum");
  }
  return Result::pass();
}

// ---------------------------------------------------------------------------
// Dynamic sparsifier vs a from-scratch rebuild.
// ---------------------------------------------------------------------------

Result prop_dyn_sparsifier_vs_rebuild(const Graph& g,
                                      const PropertyConfig& cfg) {
  const VertexId n = g.num_vertices();
  if (n < 2 || n > 128) return Result::skip("update stress sized for 2..128");
  const VertexId delta = std::max<VertexId>(1, cfg.delta);
  DynGraph dyn(n);
  DynSparsifier spars(n, delta, mix64(cfg.seed, 1));
  // A sparsifier with an unbounded budget must mirror the graph exactly —
  // the from-scratch-rebuild differential that needs no distribution
  // argument.
  DynSparsifier full(n, n, mix64(cfg.seed, 2));

  // Drive toward the target graph with random detours: inserts of g's
  // edges mixed with deletes, so the final edge set is exactly g's.
  Rng rng(cfg.seed);
  EdgeList target = g.edge_list();
  rng.shuffle(std::span<Edge>(target));
  auto apply_insert = [&](const Edge& e) {
    if (dyn.insert_edge(e.u, e.v)) {
      spars.on_insert(dyn, e.u, e.v);
      full.on_insert(dyn, e.u, e.v);
    }
  };
  auto apply_erase = [&](const Edge& e) {
    if (dyn.erase_edge(e.u, e.v)) {
      spars.on_delete(dyn, e.u, e.v);
      full.on_delete(dyn, e.u, e.v);
    }
  };
  for (const Edge& e : target) {
    apply_insert(e);
    if (!target.empty() && rng.chance(0.3)) {
      const Edge& victim = target[rng.below(target.size())];
      apply_erase(victim);
    }
  }
  for (const Edge& e : target) apply_insert(e);  // restore any detours

  const Graph now = dyn.snapshot();
  if (now.edge_list() != g.edge_list()) {
    return Result::fail("dyn graph drifted from the scripted target");
  }
  const EdgeList kept = spars.edges();
  if (kept.size() != spars.size()) {
    return Result::fail("DynSparsifier size()=" + sz(spars.size()) +
                        " != edges().size()=" + sz(kept.size()));
  }
  for (const Edge& e : kept) {
    if (!spars.contains(e.u, e.v)) {
      return Result::fail("contains() disagrees with edges() on (" +
                          sz(e.u) + "," + sz(e.v) + ")");
    }
  }
  if (Result r = check_sparsifier_structure(g, kept, delta, /*tweak=*/true,
                                            "dyn sparsifier");
      r.failed()) {
    return r;
  }
  if (full.edges() != g.edge_list()) {
    return Result::fail("unbounded-budget dyn sparsifier != from-scratch "
                        "rebuild of the final graph");
  }
  return Result::pass();
}

// ---------------------------------------------------------------------------
// Streaming and MPC realisations vs the offline sparsifier contract.
// ---------------------------------------------------------------------------

Result prop_stream_reservoir_vs_offline(const Graph& g,
                                        const PropertyConfig& cfg) {
  const VertexId n = g.num_vertices();
  const VertexId delta = std::max<VertexId>(1, cfg.delta);
  const stream::EdgeStream s(g.edge_list(),
                             stream::EdgeStream::Order::kShuffled, cfg.seed);

  auto run_pass = [&](VertexId d) {
    stream::StreamingSparsifier sp(n, d, mix64(cfg.seed, d));
    s.replay([&](const Edge& e) { sp.offer(e); });
    return sp.sparsifier_edges();
  };

  const EdgeList a = run_pass(delta);
  const EdgeList b = run_pass(delta);
  if (a != b) return Result::fail("reservoir pass not replayable from seed");
  // Reservoirs hold exactly min(deg, Δ) partners per vertex — no 2Δ
  // tweak on the streaming path.
  if (Result r = check_sparsifier_structure(g, a, delta, /*tweak=*/false,
                                            "stream sparsifier");
      r.failed()) {
    return r;
  }
  // With Δ >= max degree nothing is ever evicted: the pass must retain
  // the input exactly, independent of the stream permutation — the
  // offline-differential anchor.
  const EdgeList everything = run_pass(std::max<VertexId>(1, g.max_degree()));
  if (everything != g.edge_list()) {
    return Result::fail("reservoir with delta >= max degree lost edges");
  }
  return Result::pass();
}

Result prop_mpc_machine_invariance(const Graph& g, const PropertyConfig& cfg) {
  if (g.num_vertices() > kMaxOracleVertices) {
    return Result::skip("blossom oracle capped");
  }
  const EdgeList edges = g.edge_list();
  stream::MpcOptions opt;
  opt.delta = std::max<VertexId>(1, cfg.delta);
  opt.eps = cfg.eps;

  auto run_with = [&](std::size_t machines, std::size_t fan_in) {
    stream::MpcOptions o = opt;
    o.machines = machines;
    o.fan_in = fan_in;
    return stream::mpc_approx_matching(g.num_vertices(), edges, o, cfg.seed);
  };

  // Edge keys are mix64(seed, edge), so the merged bottom-Δ sketch — and
  // hence the matching — must not depend on how edges were sharded.
  const stream::MpcResult base = run_with(1, 2);
  if (Result r = check_valid(g, base.matching, "mpc"); r.failed()) return r;
  const VertexId opt_size = blossom_mcm(g).size();
  if (base.matching.size() > opt_size) {
    return Result::fail("mpc matching exceeds exact optimum");
  }
  for (const auto& [machines, fan_in] :
       {std::pair<std::size_t, std::size_t>{3, 2},
        std::pair<std::size_t, std::size_t>{8, 4}}) {
    const stream::MpcResult other = run_with(machines, fan_in);
    if (other.stats.sparsifier_edges != base.stats.sparsifier_edges) {
      return Result::fail("mpc sparsifier size depends on machine count (" +
                          sz(machines) + " machines)");
    }
    if (other.matching.edges() != base.matching.edges()) {
      return Result::fail("mpc matching depends on machine count (" +
                          sz(machines) + " machines)");
    }
  }
  return Result::pass();
}

// --------------------------------------------------------------------------
// Run-guard: mid-run cancellation is safe and leaves no residue
// --------------------------------------------------------------------------
//
// Three deterministic guarantees of the guarded entry point (DESIGN.md
// §12), checked in sequence on one cell:
//   1. a run cancelled at an arbitrary internal poll (picked from
//      config.seed via the cancel_after_polls hook) returns a clean
//      kCancelled outcome with a VALID (possibly empty) matching instead
//      of crashing or corrupting state;
//   2. an immediate unguarded re-run is bit-identical to a never-guarded
//      run — cancellation left nothing behind;
//   3. a memory budget too small for any sparsifier attempt still walks
//      the ladder down to a valid greedy-maximal outcome.
Result prop_guard_cancel_rerun(const Graph& g, const PropertyConfig& cfg) {
  ApproxMatchingConfig acfg;
  acfg.beta = std::max<VertexId>(1, cfg.beta);
  acfg.eps = (cfg.eps > 0.0 && cfg.eps < 1.0) ? cfg.eps : 0.25;
  acfg.seed = cfg.seed;
  acfg.threads = 1;  // one lane: poll count is a function of (g, cfg)

  const RunOutcome base = approx_maximum_matching_guarded(g, acfg);
  if (base.status != RunStatus::kOk) {
    return Result::fail("guarded run with no limits not ok: status=" +
                        std::string(to_string(base.status)));
  }
  if (Result r = check_valid(g, base.result.matching, "guarded[base]");
      r.failed()) {
    return r;
  }
  if (base.polls == 0) {
    return Result::skip("no poll sites reached (graph too small)");
  }

  // 1. Cancel at a seed-chosen poll — anywhere from the first CSR probe
  // to the last augmentation step.
  const std::uint64_t trip = 1 + mix64(cfg.seed, 0xca9ce1) % base.polls;
  RunLimits cancel_limits;
  cancel_limits.cancel_after_polls = trip;
  const RunOutcome cancelled =
      approx_maximum_matching_guarded(g, acfg, cancel_limits);
  if (cancelled.status != RunStatus::kCancelled) {
    return Result::fail(
        "cancel at poll " + sz(trip) + "/" + sz(base.polls) +
        " not reported: status=" + std::string(to_string(cancelled.status)));
  }
  if (!cancelled.partial || cancelled.guarantee != 0.0) {
    return Result::fail("cancelled outcome claims a guarantee");
  }
  if (Result r = check_valid(g, cancelled.result.matching,
                             "guarded[cancelled]");
      r.failed()) {
    return r;
  }

  // 2. Re-run bit-identity: cancellation must leave no residue.
  const RunOutcome rerun = approx_maximum_matching_guarded(g, acfg);
  if (rerun.status != RunStatus::kOk) {
    return Result::fail("re-run after cancellation not ok");
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rerun.result.matching.mate(v) != base.result.matching.mate(v)) {
      return Result::fail("re-run after cancel diverges at vertex " +
                          sz(v) + " (cancel poll " + sz(trip) + ")");
    }
  }
  if (rerun.polls != base.polls) {
    return Result::fail("re-run poll count diverges: " + sz(rerun.polls) +
                        " vs " + sz(base.polls));
  }

  // 3. Budget ladder: 1 byte admits no big-array charge, so every eps
  // rung trips and the greedy-maximal fallback (which allocates before
  // its guard, charging nothing) must complete.
  RunLimits budget_limits;
  budget_limits.mem_budget_bytes = 1;
  const RunOutcome degraded =
      approx_maximum_matching_guarded(g, acfg, budget_limits);
  if (g.num_edges() > 0) {
    if (degraded.status != RunStatus::kDegradedMaximal) {
      return Result::fail(
          "1-byte budget did not reach the maximal fallback: status=" +
          std::string(to_string(degraded.status)));
    }
    if (degraded.partial || degraded.guarantee != 2.0) {
      return Result::fail("maximal fallback outcome inconsistent");
    }
  }
  if (Result r = check_valid(g, degraded.result.matching,
                             "guarded[degraded]");
      r.failed()) {
    return r;
  }
  if (!degraded.result.matching.is_maximal(g)) {
    return Result::fail("guarded[degraded]: fallback matching not maximal");
  }
  return Result::pass();
}

/// Request-scoped isolation (DESIGN.md §14): two guarded runs in flight
/// at once — each under its own RunContext, the survivor's sparsify
/// fanned out on the SHARED default_pool() — while the victim is
/// cancelled (or budget-tripped) at a seed-chosen poll. The survivor
/// must be oblivious: outcome, matching, poll count and its per-context
/// metrics snapshot all bit-identical to running alone. Before §14 this
/// was impossible by construction (one process-wide guard slot).
Result prop_concurrent_guard_isolation(const Graph& g,
                                       const PropertyConfig& cfg) {
  ApproxMatchingConfig survivor_cfg;
  survivor_cfg.beta = std::max<VertexId>(1, cfg.beta);
  survivor_cfg.eps = (cfg.eps > 0.0 && cfg.eps < 1.0) ? cfg.eps : 0.25;
  survivor_cfg.seed = cfg.seed;
  // Two lanes on the shared pool: the run only stays isolated if its
  // workers inherit ITS context at submit time, never the victim's.
  survivor_cfg.threads = 2;

  // The victim runs the serial path so its poll count is a function of
  // (g, cfg) and the trip point can be placed deterministically.
  ApproxMatchingConfig victim_cfg = survivor_cfg;
  victim_cfg.threads = 1;
  victim_cfg.seed = mix64(cfg.seed, 0xc0117e87);

  // Solo baselines, each under a scratch context (not published — the
  // property must leave the global registry as it found it).
  RunOutcome survivor_solo;
  std::string survivor_solo_metrics;
  {
    guard::RunContext ctx("isolation.survivor.solo");
    ctx.set_publish_on_destroy(false);
    const guard::ScopedContext scope(ctx);
    survivor_solo = approx_maximum_matching_guarded(g, survivor_cfg);
    survivor_solo_metrics = ctx.metrics_snapshot().to_json();
  }
  if (survivor_solo.status != RunStatus::kOk) {
    return Result::fail("survivor solo run not ok: status=" +
                        std::string(to_string(survivor_solo.status)));
  }
  RunOutcome victim_solo;
  {
    guard::RunContext ctx("isolation.victim.solo");
    ctx.set_publish_on_destroy(false);
    const guard::ScopedContext scope(ctx);
    victim_solo = approx_maximum_matching_guarded(g, victim_cfg);
  }
  if (victim_solo.status != RunStatus::kOk) {
    return Result::fail("victim solo run not ok");
  }
  if (victim_solo.polls == 0) {
    return Result::skip("no poll sites reached (graph too small)");
  }

  // One concurrent episode: the victim under `victim_limits` on its own
  // thread, the survivor overlapping on this thread (both started
  // through a barrier so the windows actually overlap). Returns the
  // victim's outcome; fills the survivor's outcome + metrics json.
  const auto run_pair = [&](const RunLimits& victim_limits,
                            const char* tag, RunOutcome* survivor_out,
                            std::string* survivor_metrics) {
    RunOutcome victim_out;
    std::atomic<int> ready{0};
    const auto sync = [&ready] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < 2) {
      }
    };
    std::thread victim_thread([&] {
      guard::RunContext ctx(std::string("isolation.victim.") + tag);
      ctx.set_publish_on_destroy(false);
      const guard::ScopedContext scope(ctx);
      sync();
      victim_out = approx_maximum_matching_guarded(g, victim_cfg,
                                                   victim_limits);
    });
    {
      guard::RunContext ctx(std::string("isolation.survivor.") + tag);
      ctx.set_publish_on_destroy(false);
      const guard::ScopedContext scope(ctx);
      sync();
      *survivor_out = approx_maximum_matching_guarded(g, survivor_cfg);
      *survivor_metrics = ctx.metrics_snapshot().to_json();
    }
    victim_thread.join();
    return victim_out;
  };

  const auto check_survivor = [&](const RunOutcome& got,
                                  const std::string& metrics,
                                  const char* tag) {
    if (got.status != RunStatus::kOk) {
      return Result::fail(std::string("survivor[") + tag +
                          "] disturbed: status=" +
                          std::string(to_string(got.status)));
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (got.result.matching.mate(v) !=
          survivor_solo.result.matching.mate(v)) {
        return Result::fail(std::string("survivor[") + tag +
                            "] matching diverges from solo at vertex " +
                            sz(v));
      }
    }
    if (got.polls != survivor_solo.polls) {
      return Result::fail(std::string("survivor[") + tag +
                          "] poll count diverges: " + sz(got.polls) +
                          " vs solo " + sz(survivor_solo.polls));
    }
    if (metrics != survivor_solo_metrics) {
      return Result::fail(std::string("survivor[") + tag +
                          "] per-context metrics diverge from solo");
    }
    return Result::pass();
  };

  // 1. Victim cancelled at a seed-chosen poll while the survivor runs.
  const std::uint64_t trip =
      1 + mix64(cfg.seed, 0x15011a7e) % victim_solo.polls;
  RunLimits cancel_limits;
  cancel_limits.cancel_after_polls = trip;
  RunOutcome survivor_got;
  std::string survivor_metrics;
  const RunOutcome cancelled =
      run_pair(cancel_limits, "cancel", &survivor_got, &survivor_metrics);
  if (cancelled.status != RunStatus::kCancelled) {
    return Result::fail(
        "concurrent victim cancel at poll " + sz(trip) + "/" +
        sz(victim_solo.polls) +
        " not reported: status=" + std::string(to_string(cancelled.status)));
  }
  if (Result r = check_valid(g, cancelled.result.matching,
                             "isolation[victim.cancel]");
      r.failed()) {
    return r;
  }
  if (Result r = check_survivor(survivor_got, survivor_metrics, "cancel");
      r.failed()) {
    return r;
  }

  // 2. Victim budget-tripped into the maximal fallback while the
  // survivor runs.
  RunLimits budget_limits;
  budget_limits.mem_budget_bytes = 1;
  const RunOutcome degraded =
      run_pair(budget_limits, "budget", &survivor_got, &survivor_metrics);
  if (g.num_edges() > 0 &&
      degraded.status != RunStatus::kDegradedMaximal) {
    return Result::fail(
        "concurrent victim 1-byte budget did not reach the maximal "
        "fallback: status=" +
        std::string(to_string(degraded.status)));
  }
  if (Result r = check_valid(g, degraded.result.matching,
                             "isolation[victim.budget]");
      r.failed()) {
    return r;
  }
  if (Result r = check_survivor(survivor_got, survivor_metrics, "budget");
      r.failed()) {
    return r;
  }
  return Result::pass();
}

/// Request isolation end to end through the daemon (DESIGN.md §15): an
/// in-process Server, a survivor MATCH overlapping a victim that is
/// cancelled (or budget-tripped) mid-run on another connection. The
/// survivor's reply must be bit-identical to its solo reply (and to the
/// direct library call), and the tripped victims must leave the
/// sparsifier cache exactly as warm as they found it. The wire analogue
/// of concurrent_guard_isolation above, with the server's admission /
/// cache / per-request-context plumbing in the loop.
Result prop_serve_request_isolation(const Graph& g,
                                    const PropertyConfig& cfg) {
  serve::ServerOptions opts;
  opts.cache_bytes = 64ull << 20;
  opts.max_inflight = 0;  // admission shedding is not under test here
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) {
    return Result::fail("serve start failed: " + err);
  }

  serve::Client warm(server.connect_in_process());
  if (!warm.valid()) return Result::fail("connect_in_process failed");

  serve::LoadRequest load;
  load.source = "prop";
  load.n = g.num_vertices();
  load.edges = g.edge_list();
  if (!warm.load(load)) {
    return Result::fail("LOAD refused: " + warm.last_error().message);
  }

  serve::JobRequest survivor;
  survivor.source = "prop";
  survivor.beta = std::max<VertexId>(1, cfg.beta);
  survivor.eps = (cfg.eps > 0.0 && cfg.eps < 1.0) ? cfg.eps : 0.25;
  survivor.seed = cfg.seed;
  // Two sparsifier lanes: the survivor's pool tasks must inherit ITS
  // request context, never a concurrent victim's.
  survivor.threads = 2;
  serve::JobRequest victim = survivor;
  victim.threads = 1;  // one lane: deterministic poll placement
  victim.seed = mix64(cfg.seed, 0xc0117e87);

  // Warm both cache lanes, then take the solo baselines off the hits
  // (hit replies are what the concurrent episodes will produce too, so
  // poll counts compare exactly).
  if (!warm.match(survivor) || !warm.match(victim)) {
    return Result::fail("warmup MATCH refused: " +
                        warm.last_error().message);
  }
  const auto solo_s = warm.match(survivor);
  const auto solo_v = warm.match(victim);
  if (!solo_s || !solo_v) {
    return Result::fail("solo MATCH refused: " + warm.last_error().message);
  }
  if (static_cast<RunStatus>(solo_s->status) != RunStatus::kOk ||
      static_cast<RunStatus>(solo_v->status) != RunStatus::kOk) {
    return Result::fail("solo MATCH not ok");
  }
  if (solo_s->cache_hit != 1 || solo_v->cache_hit != 1) {
    return Result::fail("solo MATCH after warmup was not a cache hit");
  }
  if (solo_v->polls == 0) {
    return Result::skip("no poll sites reached (graph too small)");
  }

  // The wire result must be the direct library call's result.
  ApproxMatchingConfig lib_cfg;
  lib_cfg.beta = survivor.beta;
  lib_cfg.eps = survivor.eps;
  lib_cfg.seed = survivor.seed;
  lib_cfg.threads = 2;
  RunOutcome lib;
  {
    guard::RunContext ctx("serve_isolation.lib");
    ctx.set_publish_on_destroy(false);
    const guard::ScopedContext scope(ctx);
    lib = approx_maximum_matching_guarded(g, lib_cfg);
  }
  if (const std::string d = serve::divergence(serve::signature_of(lib),
                                              serve::signature_of(*solo_s));
      !d.empty()) {
    return Result::fail("serve MATCH vs library: " + d);
  }

  // One concurrent episode: victim and survivor on separate connections
  // and threads, started through a barrier so the windows overlap.
  const auto run_pair =
      [&](const serve::JobRequest& victim_req, bool victim_cold,
          std::optional<serve::MatchReply>* victim_out)
      -> std::optional<serve::MatchReply> {
    serve::Client victim_client(server.connect_in_process());
    serve::Client survivor_client(server.connect_in_process());
    if (!victim_client.valid() || !survivor_client.valid()) {
      return std::nullopt;
    }
    std::atomic<int> ready{0};
    const auto sync = [&ready] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < 2) {
      }
    };
    std::thread victim_thread([&] {
      sync();
      *victim_out = victim_cold ? victim_client.pipeline(victim_req)
                                : victim_client.match(victim_req);
    });
    sync();
    const auto survivor_rep = survivor_client.match(survivor);
    victim_thread.join();
    return survivor_rep;
  };

  const auto check_episode = [&](const char* tag,
                                 const serve::JobRequest& victim_req,
                                 bool victim_cold,
                                 RunStatus expect_victim) -> Result {
    std::optional<serve::MatchReply> victim_rep;
    const auto survivor_rep = run_pair(victim_req, victim_cold, &victim_rep);
    if (!survivor_rep) {
      return Result::fail(std::string("survivor[") + tag + "] refused");
    }
    if (!victim_rep) {
      return Result::fail(std::string("victim[") + tag + "] refused");
    }
    if (static_cast<RunStatus>(victim_rep->status) != expect_victim) {
      return Result::fail(
          std::string("victim[") + tag + "] status " +
          to_string(static_cast<RunStatus>(victim_rep->status)) + ", want " +
          to_string(expect_victim));
    }
    if (survivor_rep->cache_hit != 1) {
      return Result::fail(std::string("survivor[") + tag +
                          "] lost its cache hit");
    }
    if (const std::string d =
            serve::divergence(serve::signature_of(*solo_s),
                              serve::signature_of(*survivor_rep));
        !d.empty()) {
      return Result::fail(std::string("survivor[") + tag + "] " + d);
    }
    // Both sides are hit replies, so even the poll counts must agree.
    if (survivor_rep->polls != solo_s->polls) {
      return Result::fail(std::string("survivor[") + tag +
                          "] poll count " + sz(survivor_rep->polls) +
                          " vs solo " + sz(solo_s->polls));
    }
    return Result::pass();
  };

  // 1. Victim cancelled at a seed-chosen poll of its cache-hit run.
  serve::JobRequest cancel_req = victim;
  cancel_req.cancel_after_polls =
      1 + mix64(cfg.seed, 0x5e12e15a) % solo_v->polls;
  if (Result r = check_episode("cancel", cancel_req, /*victim_cold=*/false,
                               RunStatus::kCancelled);
      r.failed()) {
    return r;
  }

  // 2. Victim budget-starved on the cold PIPELINE path, shedding through
  // the ladder into the maximal fallback (cache bypassed, so the 1-byte
  // budget deterministically trips the build stage).
  if (g.num_edges() > 0) {
    serve::JobRequest budget_req = victim;
    budget_req.mem_budget_bytes = 1;
    if (Result r = check_episode("budget", budget_req, /*victim_cold=*/true,
                                 RunStatus::kDegradedMaximal);
        r.failed()) {
      return r;
    }
  }

  // The tripped victims must not have disturbed the cache: the survivor
  // still hits and still answers bit-identically.
  const auto after = warm.match(survivor);
  if (!after || after->cache_hit != 1) {
    return Result::fail("cache poisoned: post-episode MATCH not a hit");
  }
  if (const std::string d = serve::divergence(serve::signature_of(*solo_s),
                                              serve::signature_of(*after));
      !d.empty()) {
    return Result::fail("post-episode MATCH diverges: " + d);
  }
  return Result::pass();
}

std::vector<Property> build_properties() {
  return {
      {"blossom_vs_brute_force",
       "Edmonds blossom MCM vs exhaustive search (tiny graphs)",
       prop_blossom_vs_brute_force},
      {"greedy_maximal",
       "greedy matchers (CSR, shuffled, edge-list) vs maximality + blossom "
       "2-approx bound",
       prop_greedy_maximal},
      {"approx_mcm_vs_blossom",
       "bounded-aug (1+eps) matcher vs blossom via the k/(k+1) lemma",
       prop_approx_mcm_vs_blossom},
      {"hopcroft_karp_vs_blossom",
       "Hopcroft-Karp (exact + truncated) vs blossom on bipartite inputs",
       prop_hopcroft_karp_vs_blossom},
      {"assadi_solomon_maximal",
       "sampling-based maximal matcher vs maximality oracle + probe ledger",
       prop_assadi_solomon_maximal},
      {"certified_factor_vs_blossom",
       "verify.cpp augmenting-path lemma vs blossom (oracle of the oracle)",
       prop_certified_factor_vs_blossom},
      {"serial_sparsifier",
       "sparsify_edges replay + structure vs subgraph monotonicity of MCM",
       prop_serial_sparsifier},
      {"parallel_sparsifier_thread_invariance",
       "sparsify identical to from_edges(sparsify_edges) at 1/2/4/8 lanes "
       "and the pool's size",
       prop_parallel_sparsifier_thread_invariance},
      {"dist_sparsifier_fault_independence",
       "dist sparsifier protocols lossless vs lossy: identical edges under "
       "any fault schedule",
       prop_dist_sparsifier_fault_independence},
      {"dist_pipeline_safety",
       "4-stage dist pipeline lossless vs lossy: valid matching, monotone "
       "stages, never above blossom",
       prop_dist_pipeline_safety},
      {"dyn_sparsifier_vs_rebuild",
       "DynSparsifier under random update/detour sequences vs from-scratch "
       "rebuild + structure invariants",
       prop_dyn_sparsifier_vs_rebuild},
      {"stream_reservoir_vs_offline",
       "streaming reservoir sparsifier vs offline edge set on the same "
       "permutation",
       prop_stream_reservoir_vs_offline},
      {"mpc_machine_invariance",
       "MPC bottom-delta sketch pipeline invariant in machine count, vs "
       "blossom upper bound",
       prop_mpc_machine_invariance},
      {"guard_cancel_rerun",
       "guarded runs: seed-placed mid-run cancellation vs clean outcome + "
       "bit-identical re-run + budget ladder fallback",
       prop_guard_cancel_rerun},
      {"concurrent_guard_isolation",
       "two RunContext-scoped guarded runs on one shared pool, one "
       "cancelled/budget-tripped at a seed-placed poll: survivor outcome, "
       "matching, polls and per-context metrics bit-identical to solo",
       prop_concurrent_guard_isolation},
      {"serve_request_isolation",
       "in-process matchsparse_serve: survivor MATCH overlapping a "
       "cancelled/budget-tripped victim on another connection answers "
       "bit-identically to solo (and to the direct library call), cache "
       "left unpoisoned",
       prop_serve_request_isolation},
  };
}

}  // namespace

const std::vector<Property>& all_properties() {
  static const std::vector<Property> props = build_properties();
  return props;
}

}  // namespace matchsparse::check
