// perfbench_gen: runs one workload and prints its report line and its
// result line (see report.hpp). perfbench/run.py builds it and the daemon
// and is the command to run; README.md describes the workloads.
//
//   perfbench_gen --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --daemon <matchsparse_serve> --work-dir <dir>
//                    [--git <describe>] [--small] [--inject-delay <layer>:<ms>]
//
// Exit 0 with both lines printed, 2 on a usage error, 1 when the run could
// not complete (nothing printed on stdout).

#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "tracing.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_gen: %s\n"
               "usage: perfbench_gen --workload <lib-dense|lib-linegraph|"
               "serve-hot|serve-churn> --seed <n> --seconds <s> --trace <0|1>\n"
               "                        --daemon <path> --work-dir <dir> "
               "[--git <describe>] [--small] [--inject-delay <layer>:<ms>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--small") {
      o.small = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string_view value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      const auto v = matchsparse::parse_u64(value);
      if (!v) return usage("bad --seed");
      o.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = matchsparse::parse_double(value);
      if (!v || !(*v >= 0) || *v > 3600) return usage("bad --seconds");
      o.seconds = *v;
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (arg == "--git") {
      o.git = value;
    } else if (arg == "--daemon") {
      o.daemon = value;
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else if (arg == "--inject-delay") {
      if (!arm_delay(value)) return usage("bad --inject-delay");
    } else {
      return usage("unknown flag");
    }
  }
  const bool lib = is_lib_workload(o.workload);
  if (!lib && !is_serve_workload(o.workload)) return usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (o.work_dir.empty() || (!lib && o.daemon.empty())) {
    return usage("--work-dir (and --daemon for serve-*) are required");
  }

  Outcome out;
  Report& rep = out.report;
  rep.stamp("workload", o.workload);
  rep.stamp("seed", static_cast<double>(o.seed));
  rep.stamp("seconds", o.seconds);
  rep.stamp("trace", o.trace ? 1.0 : 0.0);
  rep.stamp("git", o.git);
  rep.stamp("build_type", PERFBENCH_BUILD_TYPE);
  rep.stamp("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  try {
    if (lib) {
      run_lib(o, out);
    } else {
      run_serve(o, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  rep.stamp("pool_threads",
            static_cast<double>(matchsparse::default_pool().size()));
  if (out.attempted == 0) rep.problem("no operation ran in the measured window");
  const MetricKind printed = o.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  std::printf("%s\n%s\n", rep.report_line(printed).c_str(),
              rep.result_line(printed, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return 0;
}
