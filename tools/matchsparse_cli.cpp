// matchsparse command-line tool: generate instances, inspect them, and
// run the sparsify+match pipeline on edge-list files.
//
//   matchsparse_cli gen <family> <n> <seed> <out.edges>
//   matchsparse_cli info <graph.edges>
//   matchsparse_cli sparsify <graph.edges> <beta> <eps> <seed> <out.edges>
//   matchsparse_cli match <graph.edges> <beta> <eps> [seed]
//   matchsparse_cli pipeline <graph.edges> <beta> <eps> [seed]
//
// Global flags (any command):
//   --trace=<file>    record tracing spans, write Chrome trace_event
//                     JSON (load in chrome://tracing or Perfetto)
//   --metrics=<file>  write the run manifest (git revision, config,
//                     seed, metrics snapshot, span summary)
//
// Run-guard flags (match and pipeline; see DESIGN.md §12):
//   --deadline-ms=<ms>   hard wall-clock budget; the degradation ladder
//                        trades ε for time instead of overrunning
//   --mem-budget=<bytes> cap on concurrently charged big arrays; accepts
//                        k/m/g binary suffixes ("512m")
//   --degrade=off|eps|maximal   ladder policy (default maximal)
// A degraded run still exits 0 and reports the achieved guarantee; only
// failed/cancelled runs exit 3.
//
// Concurrency self-test (match only; DESIGN.md §14):
//   --repeat=N --jobs=K   run the same guarded request N times, K at a
//                         time, each under its own guard::RunContext on
//                         the shared process. Every run is cross-checked
//                         bit-for-bit (status, matching, poll count,
//                         per-request metrics snapshot) against a solo
//                         reference run; any divergence exits 3. With
//                         --metrics/--trace, each request additionally
//                         writes its own manifest/trace to
//                         <path>.req<id>. Deterministic limits only:
//                         wall-clock deadlines may legitimately trip in
//                         some repeats and not others.
//
// Families: line, unitdisk, cliqueunion, unitint, complete (see
// gen/families.hpp). File format: "n m" header then "u v" lines.
//
// Bad input — malformed files, unknown families, garbage numbers — is a
// user error, not a programmer error: it is reported as a one-line
// message on stderr with a nonzero exit, never as an MS_CHECK abort.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "gen/families.hpp"
#include "graph/io.hpp"
#include "graph/measures.hpp"
#include "guard/context.hpp"
#include "matching/greedy.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/diffcheck.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace matchsparse;

namespace {

/// Filled by the --trace= / --metrics= global flags and by whichever
/// command runs (tool/config/seed/threads), then flushed by main.
struct ObsOutputs {
  std::string trace_path;
  std::string metrics_path;
  obs::RunManifest manifest;
};
ObsOutputs g_obs;

/// Filled by the --deadline-ms= / --mem-budget= / --degrade= flags.
struct GuardFlags {
  RunLimits limits;
  bool any = false;  // guarded execution only when a guard flag is given
};
GuardFlags g_guard;

/// Filled by the --repeat=/--jobs= flags (concurrency self-test; match
/// only).
struct SelfTestFlags {
  std::uint64_t repeat = 1;
  std::uint64_t jobs = 1;
  bool requested() const { return repeat > 1 || jobs > 1; }
};
SelfTestFlags g_selftest;

/// Thrown on malformed command-line arguments; caught in main alongside
/// IoError and turned into a one-line diagnostic + exit 1.
class UsageError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  matchsparse_cli gen <family> <n> <seed> <out.edges>\n"
               "  matchsparse_cli info <graph.edges>\n"
               "  matchsparse_cli sparsify <graph.edges> <beta> <eps> "
               "<seed> <out.edges>\n"
               "  matchsparse_cli match <graph.edges> <beta> <eps> [seed]\n"
               "  matchsparse_cli pipeline <graph.edges> <beta> <eps> "
               "[seed]\n"
               "flags: --trace=<chrome.json> --metrics=<manifest.json>\n"
               "       --deadline-ms=<ms> --mem-budget=<bytes[k|m|g]> "
               "--degrade=off|eps|maximal\n"
               "       --repeat=<N> --jobs=<K>   (match: concurrent "
               "self-test, see DESIGN.md \xC2\xA7" "14)\n"
               "families: line unitdisk cliqueunion unitint cliquepath "
               "complete\n");
  return 2;
}

// Strict numeric parsers: thin UsageError wrappers over util/parse.hpp
// (std::from_chars — the whole argument must parse; no whitespace, signs
// on integers, locale-dependent separators, or trailing junk).

std::uint64_t parse_u64(const char* arg, const char* what) {
  const auto value = matchsparse::parse_u64(arg);
  if (value.has_value()) return *value;
  throw UsageError(std::string(what) + " must be a non-negative integer, "
                   "got \"" + arg + "\"");
}

VertexId parse_vertex_count(const char* arg, const char* what) {
  const std::uint64_t value = parse_u64(arg, what);
  if (value > kNoVertex) {
    throw UsageError(std::string(what) + " exceeds 32-bit id space");
  }
  return static_cast<VertexId>(value);
}

double parse_double(const char* arg, const char* what) {
  const auto value = matchsparse::parse_double(arg);
  if (value.has_value()) return *value;
  throw UsageError(std::string(what) + " must be a number, got \"" +
                   std::string(arg) + "\"");
}

std::uint64_t parse_bytes(const char* arg, const char* what) {
  const auto value = matchsparse::parse_bytes(arg);
  if (value.has_value()) return *value;
  throw UsageError(std::string(what) +
                   " must be a byte count (optional k/m/g suffix), got \"" +
                   std::string(arg) + "\"");
}

/// find_family MS_CHECK-aborts on unknown names (it is a library-level
/// contract); the CLI pre-validates so a typo gets a friendly message.
const gen::Family& lookup_family(const char* name) {
  for (const gen::Family& f : gen::standard_families()) {
    if (f.name == name) return f;
  }
  std::string known;
  for (const gen::Family& f : gen::standard_families()) {
    if (!known.empty()) known += ", ";
    known += f.name;
  }
  throw UsageError("unknown family \"" + std::string(name) +
                   "\" (known: " + known + ")");
}

int cmd_gen(int argc, char** argv) {
  if (argc != 6) return usage();
  const auto& family = lookup_family(argv[2]);
  const VertexId n = parse_vertex_count(argv[3], "n");
  const std::uint64_t seed = parse_u64(argv[4], "seed");
  const Graph g = family.make(n, seed);
  save_edge_list(g, argv[5]);
  std::printf("wrote %s: n=%u m=%llu (family %s, beta<=%u)\n", argv[5],
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()),
              family.name.c_str(), family.beta_bound);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc != 3) return usage();
  const Graph g = load_edge_list(argv[2]);
  const auto arb = estimate_arboricity(g);
  std::printf("n            %u\n", g.num_vertices());
  std::printf("m            %llu\n",
              static_cast<unsigned long long>(g.num_edges()));
  std::printf("non-isolated %u\n", g.num_non_isolated());
  std::printf("max degree   %u\n", g.max_degree());
  std::printf("avg degree   %.2f\n", g.average_degree());
  std::printf("arboricity   [%.0f, %.0f]\n", arb.lower, arb.upper);
  if (g.num_vertices() <= 5000) {
    const auto beta = neighborhood_independence(g);
    std::printf("beta         %u%s\n", beta.value,
                beta.exact ? "" : " (lower bound)");
  } else {
    std::printf("beta         (skipped; n > 5000)\n");
  }
  return 0;
}

// The library MS_CHECKs eps ∈ (0,1) and beta >= 1; validate here so the
// CLI reports instead of aborting.
void check_config(VertexId beta, double eps) {
  if (beta < 1) throw UsageError("beta must be >= 1");
  if (!(eps > 0.0 && eps < 1.0)) {
    throw UsageError("eps must be strictly between 0 and 1");
  }
}

int cmd_sparsify(int argc, char** argv) {
  if (argc != 7) return usage();
  const Graph g = load_edge_list(argv[2]);
  ApproxMatchingConfig cfg;
  cfg.beta = parse_vertex_count(argv[3], "beta");
  cfg.eps = parse_double(argv[4], "eps");
  cfg.seed = parse_u64(argv[5], "seed");
  check_config(cfg.beta, cfg.eps);
  g_obs.manifest.seed = cfg.seed;
  g_obs.manifest.config = "beta=" + std::to_string(cfg.beta) +
                          " eps=" + std::to_string(cfg.eps);
  SparsifierStats stats;
  const Graph gd = build_matching_sparsifier(g, cfg, &stats);
  save_edge_list(gd, argv[6]);
  std::printf("wrote %s: %llu of %llu edges kept (%.1f%%), "
              "%llu probes, %.1f ms\n",
              argv[6], static_cast<unsigned long long>(gd.num_edges()),
              static_cast<unsigned long long>(g.num_edges()),
              100.0 * static_cast<double>(gd.num_edges()) /
                  static_cast<double>(std::max<EdgeIndex>(1, g.num_edges())),
              static_cast<unsigned long long>(stats.probes),
              stats.total_seconds * 1e3);
  return 0;
}

/// `match` under --deadline-ms/--mem-budget/--degrade. The degradation
/// ladder means a tripped limit is an OUTCOME, not an error: degraded
/// runs exit 0 with the achieved guarantee on stdout; only cancelled or
/// failed (ladder off/exhausted) runs exit 3.
int run_guarded_match(const Graph& g, const ApproxMatchingConfig& cfg) {
  const RunOutcome outcome =
      approx_maximum_matching_guarded(g, cfg, g_guard.limits);
  std::printf("guarded match: status=%s stop=%s\n", to_string(outcome.status),
              guard::to_string(outcome.stop_reason));
  std::printf("  matched=%u partial=%s eps_effective=%.3f guarantee=%s "
              "size_floor=%u\n",
              outcome.result.matching.size(), outcome.partial ? "yes" : "no",
              outcome.eps_effective,
              outcome.guarantee > 0.0
                  ? (std::to_string(outcome.guarantee) + "x").c_str()
                  : "none",
              outcome.size_floor);
  if (outcome.mem_peak_bytes > 0) {
    std::printf("  peak charged memory: %llu bytes\n",
                static_cast<unsigned long long>(outcome.mem_peak_bytes));
  }
  if (!outcome.detail.empty()) {
    std::printf("  detail: %s\n", outcome.detail.c_str());
  }
  return (outcome.ok() || outcome.degraded()) ? 0 : 3;
}

/// `match --repeat=N --jobs=K`: N identical guarded requests, K in
/// flight at a time, each under its own guard::RunContext so guard,
/// metrics and trace state never cross between requests (DESIGN.md
/// §14). Every run is compared bit-for-bit against one solo reference
/// run taken before the fleet starts; per-request manifests/traces go
/// to <path>.req<id> when --metrics/--trace were given.
int run_selftest_match(const Graph& g, const ApproxMatchingConfig& cfg) {
  const std::uint64_t repeat = g_selftest.repeat;
  const std::uint64_t jobs = std::min(g_selftest.jobs, repeat);

  RunOutcome ref;
  serve::RunSignature ref_sig;
  {
    guard::RunContext ctx("selftest-reference");
    const guard::ScopedContext scope(ctx);
    ref = approx_maximum_matching_guarded(g, cfg, g_guard.limits);
    ref_sig = serve::signature_of(ref, ctx.metrics_snapshot().to_json());
  }

  std::atomic<std::uint64_t> next{0};
  std::vector<std::string> divergence(repeat);
  const auto run_request = [&](std::uint64_t r) {
    const std::string rid = std::to_string(r);
    guard::RunContext ctx("selftest-req-" + rid);
    const guard::ScopedContext scope(ctx);
    if (!g_obs.trace_path.empty()) ctx.tracer().set_enabled(true);
    const RunOutcome out =
        approx_maximum_matching_guarded(g, cfg, g_guard.limits);
    // One reference-divergence checker for every "bit-identical to solo"
    // surface — the serve daemon's tests and the serve_request_isolation
    // property compare through the same serve::divergence().
    divergence[r] = serve::divergence(
        ref_sig,
        serve::signature_of(out, ctx.metrics_snapshot().to_json()));
    // Per-request outputs, resolved through THIS request's ambient scope:
    // the manifest embeds this context's metrics and span summary only.
    if (!g_obs.metrics_path.empty()) {
      obs::RunManifest m = g_obs.manifest;
      m.tool += " req-" + rid;
      obs::write_run_manifest(g_obs.metrics_path + ".req" + rid, m);
    }
    if (!g_obs.trace_path.empty()) {
      ctx.tracer().export_chrome(g_obs.trace_path + ".req" + rid);
    }
  };

  std::vector<std::thread> lanes;
  lanes.reserve(jobs);
  for (std::uint64_t k = 0; k < jobs; ++k) {
    lanes.emplace_back([&] {
      for (std::uint64_t r;
           (r = next.fetch_add(1, std::memory_order_relaxed)) < repeat;) {
        run_request(r);
      }
    });
  }
  for (std::thread& t : lanes) t.join();

  std::uint64_t failures = 0;
  for (std::uint64_t r = 0; r < repeat; ++r) {
    if (divergence[r].empty()) continue;
    ++failures;
    std::printf("  req-%llu: %s\n", static_cast<unsigned long long>(r),
                divergence[r].c_str());
  }
  std::printf("self-test: %llu requests x %llu jobs: %s (reference: "
              "status=%s matched=%u polls=%llu)\n",
              static_cast<unsigned long long>(repeat),
              static_cast<unsigned long long>(jobs),
              failures == 0 ? "all bit-identical to solo reference"
                            : (std::to_string(failures) + " diverged").c_str(),
              to_string(ref.status), ref.result.matching.size(),
              static_cast<unsigned long long>(ref.polls));
  return failures == 0 ? 0 : 3;
}

int cmd_match(int argc, char** argv) {
  if (argc != 5 && argc != 6) return usage();
  const Graph g = load_edge_list(argv[2]);
  ApproxMatchingConfig cfg;
  cfg.beta = parse_vertex_count(argv[3], "beta");
  cfg.eps = parse_double(argv[4], "eps");
  if (argc == 6) cfg.seed = parse_u64(argv[5], "seed");
  check_config(cfg.beta, cfg.eps);
  g_obs.manifest.seed = cfg.seed;
  g_obs.manifest.config =
      "beta=" + std::to_string(cfg.beta) + " eps=" + std::to_string(cfg.eps);
  if (g_selftest.requested()) return run_selftest_match(g, cfg);
  if (g_guard.any) return run_guarded_match(g, cfg);
  const auto result = approx_maximum_matching(g, cfg);
  WallTimer t;
  const Matching greedy = greedy_maximal_matching(g);
  const double greedy_ms = t.millis();
  std::printf("sparsify+match: %u edges (delta=%u, probes=%llu, "
              "%.1f ms)\n",
              result.matching.size(), result.delta,
              static_cast<unsigned long long>(result.probes),
              (result.sparsify_seconds + result.match_seconds) * 1e3);
  std::printf("greedy baseline: %u edges (%.1f ms, reads all %llu "
              "entries)\n",
              greedy.size(), greedy_ms,
              static_cast<unsigned long long>(2 * g.num_edges()));
  return 0;
}

/// Runs the full sequential pipeline (sparsify + bounded-aug matching on
/// the general-graph path, so the augmenting counters are exercised) and
/// the four-stage distributed pipeline on the same instance — the
/// one-command way to produce a trace and metrics snapshot covering
/// every instrumented subsystem.
/// `pipeline` under run-guard flags: the sequential half goes through the
/// degradation ladder; the distributed half runs under a fresh guard of
/// the same deadline and converts round-budget overruns into a partial
/// stage report (clean break in the engine, stage completed=false).
int run_guarded_pipeline(const Graph& g, const ApproxMatchingConfig& cfg) {
  const RunOutcome seq =
      approx_maximum_matching_guarded(g, cfg, g_guard.limits);
  std::printf("sequential: status=%s stop=%s matched=%u guarantee=%s\n",
              to_string(seq.status), guard::to_string(seq.stop_reason),
              seq.result.matching.size(),
              seq.guarantee > 0.0
                  ? (std::to_string(seq.guarantee) + "x").c_str()
                  : "none");
  if (!seq.detail.empty()) std::printf("  detail: %s\n", seq.detail.c_str());
  if (seq.status == RunStatus::kCancelled ||
      seq.status == RunStatus::kFailed) {
    return 3;
  }

  dist::DistributedMatchingOptions dopt;
  dopt.beta = cfg.beta;
  dopt.eps = cfg.eps;
  guard::RunGuard::Limits gl;
  gl.deadline_ms = g_guard.limits.deadline_ms;
  gl.mem_budget_bytes = g_guard.limits.mem_budget_bytes;
  guard::RunGuard dist_guard(gl);
  dist::DistributedMatchingResult dres;
  {
    const guard::ScopedGuard installed(dist_guard);
    dres = dist::distributed_approx_matching(g, dopt, cfg.seed);
  }
  const bool dist_degraded =
      dist_guard.stopped() || !dres.all_stages_completed();
  std::printf("distributed: status=%s matched=%u rounds=%zu\n",
              dist_degraded ? "degraded" : "ok", dres.matching.size(),
              dres.total_rounds());
  if (dist_guard.stopped()) {
    std::printf("  detail: stopped on %s — partial stage output kept\n",
                guard::to_string(dist_guard.stop_reason()));
  }
  return 0;
}

int cmd_pipeline(int argc, char** argv) {
  if (argc != 5 && argc != 6) return usage();
  const Graph g = load_edge_list(argv[2]);
  ApproxMatchingConfig cfg;
  cfg.beta = parse_vertex_count(argv[3], "beta");
  cfg.eps = parse_double(argv[4], "eps");
  if (argc == 6) cfg.seed = parse_u64(argv[5], "seed");
  check_config(cfg.beta, cfg.eps);
  cfg.threads = 0;  // fused parallel sparsifier on the default pool
  cfg.bipartite_fast_path = false;  // always exercise the general matcher
  g_obs.manifest.seed = cfg.seed;
  g_obs.manifest.threads = default_pool().size();
  g_obs.manifest.config = "beta=" + std::to_string(cfg.beta) +
                          " eps=" + std::to_string(cfg.eps);
  if (g_guard.any) return run_guarded_pipeline(g, cfg);

  const auto seq = approx_maximum_matching(g, cfg);
  std::printf("sequential: %u edges matched (delta=%u, |E(G_d)|=%llu, "
              "%.1f ms)\n",
              seq.matching.size(), seq.delta,
              static_cast<unsigned long long>(seq.sparsifier_edges),
              (seq.sparsify_seconds + seq.match_seconds) * 1e3);

  dist::DistributedMatchingOptions dopt;
  dopt.beta = cfg.beta;
  dopt.eps = cfg.eps;
  const auto dres = dist::distributed_approx_matching(g, dopt, cfg.seed);
  const auto& s = dres.stage_sparsify;
  std::printf("distributed: %u edges matched (delta=%u, stage-1 traffic "
              "%llu msgs / %llu bits)\n",
              dres.matching.size(), dres.delta,
              static_cast<unsigned long long>(s.messages),
              static_cast<unsigned long long>(s.bits));
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  g_obs.manifest.tool = std::string("matchsparse_cli ") + argv[1];
  if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
  if (std::strcmp(argv[1], "info") == 0) return cmd_info(argc, argv);
  if (std::strcmp(argv[1], "sparsify") == 0) return cmd_sparsify(argc, argv);
  if (std::strcmp(argv[1], "match") == 0) return cmd_match(argc, argv);
  if (std::strcmp(argv[1], "pipeline") == 0) return cmd_pipeline(argc, argv);
  return usage();
}

/// Strips --trace=/--metrics= and the run-guard flags from argv (any
/// position) and records them; returns the remaining positional
/// arguments.
std::vector<char*> parse_obs_flags(int argc, char** argv) {
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      g_obs.trace_path = argv[i] + 8;
      if (g_obs.trace_path.empty()) throw UsageError("--trace= needs a path");
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      g_obs.metrics_path = argv[i] + 10;
      if (g_obs.metrics_path.empty()) {
        throw UsageError("--metrics= needs a path");
      }
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      g_guard.limits.deadline_ms = parse_double(argv[i] + 14, "--deadline-ms");
      if (g_guard.limits.deadline_ms <= 0.0) {
        throw UsageError("--deadline-ms must be > 0");
      }
      g_guard.any = true;
    } else if (std::strncmp(argv[i], "--mem-budget=", 13) == 0) {
      g_guard.limits.mem_budget_bytes =
          parse_bytes(argv[i] + 13, "--mem-budget");
      if (g_guard.limits.mem_budget_bytes == 0) {
        throw UsageError("--mem-budget must be > 0");
      }
      g_guard.any = true;
    } else if (std::strncmp(argv[i], "--degrade=", 10) == 0) {
      const std::string mode = argv[i] + 10;
      if (mode == "off") {
        g_guard.limits.degrade = RunLimits::Degrade::kOff;
      } else if (mode == "eps") {
        g_guard.limits.degrade = RunLimits::Degrade::kEps;
      } else if (mode == "maximal") {
        g_guard.limits.degrade = RunLimits::Degrade::kMaximal;
      } else {
        throw UsageError("--degrade must be off, eps, or maximal, got \"" +
                         mode + "\"");
      }
      g_guard.any = true;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      g_selftest.repeat = parse_u64(argv[i] + 9, "--repeat");
      if (g_selftest.repeat == 0) throw UsageError("--repeat must be >= 1");
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      g_selftest.jobs = parse_u64(argv[i] + 7, "--jobs");
      if (g_selftest.jobs == 0) throw UsageError("--jobs must be >= 1");
    } else {
      rest.push_back(argv[i]);
    }
  }
  return rest;
}

/// Writes whatever --trace/--metrics asked for. Failures are diagnostics,
/// not aborts: the computation already succeeded.
int flush_obs_outputs() {
  int rc = 0;
  if (!g_obs.trace_path.empty() &&
      !obs::Tracer::instance().export_chrome(g_obs.trace_path)) {
    std::fprintf(stderr, "matchsparse_cli: cannot write trace to %s\n",
                 g_obs.trace_path.c_str());
    rc = 1;
  }
  if (!g_obs.metrics_path.empty() &&
      !obs::write_run_manifest(g_obs.metrics_path, g_obs.manifest)) {
    std::fprintf(stderr, "matchsparse_cli: cannot write metrics to %s\n",
                 g_obs.metrics_path.c_str());
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<char*> args = parse_obs_flags(argc, argv);
    if (!g_obs.trace_path.empty()) obs::Tracer::instance().set_enabled(true);
    const int rc =
        dispatch(static_cast<int>(args.size()), args.data());
    const int obs_rc = flush_obs_outputs();
    return rc != 0 ? rc : obs_rc;
  } catch (const IoError& e) {
    std::fprintf(stderr, "matchsparse_cli: %s\n", e.what());
    return 1;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "matchsparse_cli: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "matchsparse_cli: unexpected error: %s\n",
                 e.what());
    return 1;
  }
}
