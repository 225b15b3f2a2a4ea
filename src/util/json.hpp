// JSON string escaping, shared by every hand-written JSON emitter: the
// metrics snapshot, the trace exports, the run manifest, the property
// runner's ndjson log and the benches' BENCH_*.json rows.
#pragma once

#include <string>
#include <string_view>

namespace matchsparse {

/// Appends `s` to `out` as a quoted JSON string. `"` and `\` get a
/// backslash, \n and \t their short escapes, any other byte below 0x20
/// becomes \u00XX, and every other byte (UTF-8 included) passes through
/// unchanged.
void append_json_string(std::string& out, std::string_view s);

/// append_json_string into a new string.
inline std::string json_string(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

}  // namespace matchsparse
