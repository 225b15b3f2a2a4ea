#include "check/runner.hpp"

#include <algorithm>
#include <filesystem>

#include "check/case_gen.hpp"
#include "check/shrink.hpp"
#include "obs/metrics.hpp"
#include "util/common.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace matchsparse::check {

namespace {

const char* status_suffix(PropertyResult::Status s) {
  switch (s) {
    case PropertyResult::Status::kPass: return ".pass";
    case PropertyResult::Status::kFail: return ".fail";
    case PropertyResult::Status::kSkip: return ".skip";
  }
  return ".pass";
}

const char* status_name(PropertyResult::Status s) {
  switch (s) {
    case PropertyResult::Status::kPass: return "pass";
    case PropertyResult::Status::kFail: return "fail";
    case PropertyResult::Status::kSkip: return "skip";
  }
  return "?";
}

void log_cell(std::FILE* log, const std::string& source,
              const std::string& case_name, const std::string& property,
              const Graph& g, const PropertyConfig& cfg,
              const PropertyResult& result, double micros) {
  if (log == nullptr) return;
  std::fprintf(
      log,
      "{\"event\":\"cell\",\"source\":\"%s\",\"case\":%s,"
      "\"property\":\"%s\",\"n\":%u,\"m\":%llu,\"config\":\"%s\","
      "\"status\":\"%s\",\"micros\":%.0f,\"message\":%s}\n",
      source.c_str(), json_string(case_name).c_str(), property.c_str(),
      g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
      cfg.to_string().c_str(), status_name(result.status), micros,
      json_string(result.message).c_str());
}

void count_result(const PropertyResult& r, FuzzStats* stats) {
  ++stats->cells;
  switch (r.status) {
    case PropertyResult::Status::kPass: ++stats->passed; break;
    case PropertyResult::Status::kSkip: ++stats->skipped; break;
    case PropertyResult::Status::kFail: ++stats->failures; break;
  }
}

/// Per-property registry accounting behind the soak summary table:
/// "check.<property>.{pass,fail,skip}" counters and a
/// "check.<property>.micros" wall-time histogram. Cells are heavyweight
/// (each builds a graph and runs an oracle), so the by-name registry
/// lookups here are noise.
void publish_cell(const std::string& property, const PropertyResult& r,
                  double micros) {
  const std::string prefix = "check." + property;
  obs::counter(prefix + status_suffix(r.status)).add(1);
  // Corpus replays are untimed (micros == 0) and stay out of the
  // distribution.
  if (micros > 0.0) obs::bucket_histogram(prefix + ".micros").observe(micros);
}

}  // namespace

FuzzStats run_fuzz(const FuzzOptions& opt) {
  FuzzStats stats;
  WallTimer timer;

  // Resolve the property filter once (the CLI pre-validates names; a bad
  // name reaching this point is a harness bug).
  std::vector<const Property*> props;
  if (opt.properties.empty()) {
    for (const Property& p : all_properties()) props.push_back(&p);
  } else {
    for (const std::string& name : opt.properties) {
      const Property* p = find_property(name);
      MS_CHECK_MSG(p != nullptr, "unknown property in filter");
      props.push_back(p);
    }
  }

  // Phase 1: replay the corpus. Corpus failures are already minimal, so
  // they are reported without shrinking.
  for (const std::string& path : opt.seed_files) {
    const Counterexample cex = load_counterexample(path);
    for (const auto& [name, result] : replay_counterexample(cex)) {
      // Respect the property filter for "all"-typed seeds.
      if (!opt.properties.empty() &&
          std::find(opt.properties.begin(), opt.properties.end(), name) ==
              opt.properties.end()) {
        continue;
      }
      count_result(result, &stats);
      publish_cell(name, result, 0.0);
      log_cell(opt.log, "corpus:" + path, cex.case_name, name, cex.graph,
               cex.config, result, 0.0);
      if (result.failed()) {
        Counterexample found = cex;
        found.property = name;
        found.message = result.message;
        stats.counterexamples.push_back(std::move(found));
      }
    }
  }

  // Phase 2: generative soak. One property failing repeatedly would drown
  // the run in shrink work, so only the first failure per property is
  // shrunk and persisted.
  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
  }
  Rng master(opt.seed);
  const std::vector<GraphCase>& cases = fuzz_cases();
  static constexpr double kEpsPool[] = {0.5, 0.34, 0.25, 0.2};
  static constexpr std::size_t kThreadPool[] = {1, 2, 4, 8};
  std::vector<std::string> shrunk_already;

  std::size_t generated = 0;
  while (timer.seconds() < opt.budget_seconds &&
         generated < opt.max_cells) {
    const GraphCase& c = cases[master.below(cases.size())];
    const auto n =
        static_cast<VertexId>(2 + master.below(std::max<VertexId>(opt.max_n, 3) - 1));
    const std::uint64_t graph_seed = master();
    PropertyConfig cfg;
    cfg.seed = master();
    cfg.delta = static_cast<VertexId>(1 + master.below(8));
    cfg.eps = kEpsPool[master.below(4)];
    cfg.beta = static_cast<VertexId>(1 + master.below(4));
    cfg.threads = kThreadPool[master.below(4)];

    const Graph g = c.make(n, graph_seed);
    ++stats.graphs;
    ++generated;

    for (const Property* p : props) {
      if (timer.seconds() >= opt.budget_seconds) break;
      WallTimer cell_timer;
      const PropertyResult result = p->check(g, cfg);
      const double cell_micros = cell_timer.micros();
      count_result(result, &stats);
      publish_cell(p->name, result, cell_micros);
      log_cell(opt.log, "gen", c.name, p->name, g, cfg, result,
               cell_micros);
      if (!result.failed()) continue;

      if (std::find(shrunk_already.begin(), shrunk_already.end(), p->name) !=
          shrunk_already.end()) {
        continue;  // already have a minimal repro for this property
      }
      shrunk_already.push_back(p->name);

      Counterexample cex;
      cex.property = p->name;
      cex.case_name = c.name;
      cex.config = cfg;
      cex.graph = g;
      cex.message = result.message;
      if (opt.shrink) {
        ShrinkResult shrunk = shrink_counterexample(*p, g, cfg);
        stats.shrink_evals += shrunk.evals;
        cex.graph = std::move(shrunk.graph);
        cex.config = shrunk.config;
        cex.message = std::move(shrunk.message);
        cex.case_name = c.name + " (shrunk)";
      }
      if (!opt.out_dir.empty()) {
        const std::string path = opt.out_dir + "/" + p->name + ".graph";
        save_counterexample(cex, path);
        stats.counterexample_paths.push_back(path);
        if (opt.log != nullptr) {
          std::fprintf(opt.log,
                       "{\"event\":\"counterexample\",\"property\":\"%s\","
                       "\"path\":%s,\"n\":%u,\"m\":%llu,"
                       "\"message\":%s}\n",
                       p->name.c_str(), json_string(path).c_str(),
                       cex.graph.num_vertices(),
                       static_cast<unsigned long long>(cex.graph.num_edges()),
                       json_string(cex.message).c_str());
        }
      }
      stats.counterexamples.push_back(std::move(cex));
    }
  }

  if (opt.log != nullptr) {
    std::fprintf(opt.log,
                 "{\"event\":\"summary\",\"graphs\":%zu,\"cells\":%zu,"
                 "\"passed\":%zu,\"skipped\":%zu,\"failures\":%zu,"
                 "\"shrink_evals\":%zu,\"seconds\":%.3f}\n",
                 stats.graphs, stats.cells, stats.passed, stats.skipped,
                 stats.failures, stats.shrink_evals, timer.seconds());
  }
  return stats;
}

}  // namespace matchsparse::check
