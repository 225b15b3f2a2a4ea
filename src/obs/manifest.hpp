// Run manifest — a single JSON artifact that makes a run attributable
// and comparable: what binary ran, at which git revision, with which
// configuration and seed, and what the metrics registry and span tree
// looked like when it finished (DESIGN.md §11).
//
// The manifest is the file behind `matchsparse_cli --metrics=<file>`;
// bench_common.hpp stamps the same git/thread fields into every
// BENCH_*.json row. Keys, in order: tool, git, config, seed, threads,
// metrics, spans.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace matchsparse::obs {

/// `git describe --always --dirty` captured at configure time, or
/// "unknown" when the build was not made from a git checkout.
const char* git_describe();

struct RunManifest {
  /// What ran, e.g. "matchsparse_cli pipeline".
  std::string tool;
  /// Human-readable configuration summary (free-form, one line).
  std::string config;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
};

/// The manifest as a JSON object: identity fields, the current metrics
/// snapshot, and the tracer's span summary.
std::string run_manifest_json(const RunManifest& m);

/// Writes run_manifest_json() to `path`; false on I/O failure.
bool write_run_manifest(const std::string& path, const RunManifest& m);

}  // namespace matchsparse::obs
