// The shared JSON string escaper (util/json.hpp) behind every
// hand-written JSON emitter.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace matchsparse {
namespace {

TEST(JsonString, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_string("plain"), "\"plain\"");
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_string("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_string("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(json_string(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  // Bytes at or above 0x80 (UTF-8 sequences) pass through unchanged.
  EXPECT_EQ(json_string("\xc3\xa9\xff"), "\"\xc3\xa9\xff\"");
  std::string out = "x";
  append_json_string(out, "");
  EXPECT_EQ(out, "x\"\"");
}

}  // namespace
}  // namespace matchsparse
