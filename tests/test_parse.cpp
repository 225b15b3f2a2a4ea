// Strict numeric parsing (util/parse.hpp). The negative cases pin the
// exact laxities the old stoull/stod-based CLI parsers accepted: leading
// whitespace, a leading '+', locale-dependent decimal separators, and
// partially-consumed input. Also the saturating double -> integer
// conversion of util/common.hpp.
#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/common.hpp"

namespace matchsparse {
namespace {

TEST(ParseU64, AcceptsCanonicalIntegers) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64, RejectsNonCanonicalForms) {
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64(" 42").has_value());   // stoull accepted this
  EXPECT_FALSE(parse_u64("42 ").has_value());
  EXPECT_FALSE(parse_u64("+42").has_value());   // stoull accepted this
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("4x").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());
  EXPECT_FALSE(parse_u64("4.0").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow
}

TEST(ParseDouble, AcceptsFixedAndScientific) {
  EXPECT_DOUBLE_EQ(*parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_double(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_double("-2.25"), -2.25);
  EXPECT_DOUBLE_EQ(*parse_double("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(*parse_double("2.5E2"), 250.0);
  EXPECT_DOUBLE_EQ(*parse_double("7"), 7.0);
}

TEST(ParseDouble, RejectsNonCanonicalForms) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double(" 1").has_value());    // stod accepted this
  EXPECT_FALSE(parse_double("1 ").has_value());
  EXPECT_FALSE(parse_double("1,5").has_value());   // locale comma
  EXPECT_FALSE(parse_double("0.5x").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("0x1p2").has_value());  // stod hex float
  EXPECT_FALSE(parse_double("--1").has_value());
}

TEST(ParseBytes, AcceptsBinarySuffixes) {
  EXPECT_EQ(parse_bytes("1024"), 1024u);
  EXPECT_EQ(parse_bytes("64k"), 64u << 10);
  EXPECT_EQ(parse_bytes("64K"), 64u << 10);
  EXPECT_EQ(parse_bytes("2m"), 2u << 20);
  EXPECT_EQ(parse_bytes("1g"), 1u << 30);
  EXPECT_EQ(parse_bytes("3G"), std::uint64_t{3} << 30);
  EXPECT_EQ(parse_bytes("0k"), 0u);
}

TEST(ParseBytes, RejectsMalformedCounts) {
  EXPECT_FALSE(parse_bytes("").has_value());
  EXPECT_FALSE(parse_bytes("k").has_value());
  EXPECT_FALSE(parse_bytes("64kb").has_value());
  EXPECT_FALSE(parse_bytes("64 k").has_value());
  EXPECT_FALSE(parse_bytes("-1k").has_value());
  EXPECT_FALSE(parse_bytes("1t").has_value());
  // 2^34 GiB overflows uint64 after the shift.
  EXPECT_FALSE(parse_bytes("17179869184g").has_value());
}

TEST(SaturatingCast, ClampsOutOfRangeAndNan) {
  EXPECT_EQ(saturating_cast<std::uint32_t>(41.9), 41u);
  EXPECT_EQ(saturating_cast<std::uint32_t>(1e300), UINT32_MAX);
  EXPECT_EQ(saturating_cast<std::uint32_t>(-5.0), 0u);
  EXPECT_EQ(saturating_cast<std::uint64_t>(HUGE_VAL), UINT64_MAX);
  EXPECT_EQ(saturating_cast<std::uint64_t>(std::nan("")), 0u);
  EXPECT_EQ(saturating_cast<int>(-HUGE_VAL), INT32_MIN);
  EXPECT_EQ(saturating_cast<int>(-7.5), -7);
}

}  // namespace
}  // namespace matchsparse
