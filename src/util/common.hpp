// Common type aliases and checked-assertion macros shared by every
// matchsparse module.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace matchsparse {

/// Vertex identifier. Graphs are laid out as contiguous [0, n) ranges, so a
/// 32-bit id covers every workload in this repository while halving the
/// memory traffic of the CSR arrays relative to 64-bit ids.
using VertexId = std::uint32_t;

/// Index into a CSR edge array (directed arc slot); 64-bit because dense
/// instances (cliques at n ~ 10^5) exceed 2^32 arcs.
using EdgeIndex = std::uint64_t;

/// Sentinel meaning "no vertex" (e.g. unmatched mate).
inline constexpr VertexId kNoVertex = std::numeric_limits<VertexId>::max();

/// Converts `x` to the integer type T, clamped to T's range; NaN maps to
/// T's minimum. A plain static_cast of an out-of-range double is
/// undefined behaviour, and formulas in ε (1/ε, a deadline in ns) reach
/// such values from legal inputs.
template <typename T>
constexpr T saturating_cast(double x) {
  constexpr T lo = std::numeric_limits<T>::min();
  constexpr T hi = std::numeric_limits<T>::max();
  if (!(x > static_cast<double>(lo))) return lo;
  if (x >= static_cast<double>(hi)) return hi;
  return static_cast<T>(x);
}

namespace detail {
[[noreturn]] inline void check_failed(const char* file, int line,
                                      const char* expr, const char* msg) {
  std::fprintf(stderr, "[matchsparse] CHECK failed at %s:%d: %s%s%s\n", file,
               line, expr, msg ? " — " : "", msg ? msg : "");
  std::abort();
}
}  // namespace detail

/// Always-on invariant check. Used for API contract violations: these are
/// programmer errors, so we abort rather than throw.
#define MS_CHECK(expr)                                                     \
  do {                                                                     \
    if (!(expr))                                                           \
      ::matchsparse::detail::check_failed(__FILE__, __LINE__, #expr,       \
                                          nullptr);                        \
  } while (0)

#define MS_CHECK_MSG(expr, msg)                                            \
  do {                                                                     \
    if (!(expr))                                                           \
      ::matchsparse::detail::check_failed(__FILE__, __LINE__, #expr, msg); \
  } while (0)

/// Debug-only check, compiled out in release builds.
#ifndef NDEBUG
#define MS_DCHECK(expr) MS_CHECK(expr)
#else
#define MS_DCHECK(expr) \
  do {                  \
  } while (0)
#endif

}  // namespace matchsparse
