#include "obs/manifest.hpp"

#include <cstdio>

#include "obs/trace.hpp"
#include "util/json.hpp"

#ifndef MATCHSPARSE_GIT_DESCRIBE
#define MATCHSPARSE_GIT_DESCRIBE "unknown"
#endif

namespace matchsparse::obs {

const char* git_describe() { return MATCHSPARSE_GIT_DESCRIBE; }

std::string run_manifest_json(const RunManifest& m) {
  std::string out = "{\"tool\":";
  append_json_string(out, m.tool);
  out += ",\"git\":";
  append_json_string(out, git_describe());
  out += ",\"config\":";
  append_json_string(out, m.config);
  out += ",\"seed\":" + std::to_string(m.seed);
  out += ",\"threads\":" + std::to_string(m.threads);
  // Ambient resolution (§14): inside a RunContext scope this emits the
  // REQUEST's metrics and spans; unscoped callers get the process-wide
  // registry/tracer exactly as before.
  out += ",\"metrics\":" + metrics_snapshot().to_json();
  out += ",\"spans\":" + resolve_tracer().span_summary_json();
  out += '}';
  return out;
}

bool write_run_manifest(const std::string& path, const RunManifest& m) {
  const std::string json = run_manifest_json(m);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool all = written == json.size();
  const bool closed = std::fclose(f) == 0;
  return all && closed;
}

}  // namespace matchsparse::obs
