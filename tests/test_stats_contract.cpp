// SparsifierStats timing contract: the documented invariant is that the
// phase timings partition the end-to-end time — mark_seconds +
// build_seconds <= total_seconds (and every term is non-negative).
// sparsify enforces it with a debug-mode check; these tests pin it at one
// lane and at four so a refactor that, say, starts the total timer after
// the mark pass fails loudly in CI instead of silently publishing
// build_seconds > total_seconds.
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

Graph instance(VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  return gen::unit_disk(n, gen::unit_disk_radius_for_degree(n, 10.0), rng);
}

void expect_contract(const SparsifierStats& stats, const char* who) {
  EXPECT_GE(stats.mark_seconds, 0.0) << who;
  EXPECT_GE(stats.build_seconds, 0.0) << who;
  EXPECT_GE(stats.total_seconds, 0.0) << who;
  EXPECT_LE(stats.mark_seconds + stats.build_seconds,
            stats.total_seconds + 1e-9)
      << who << ": mark=" << stats.mark_seconds
      << " build=" << stats.build_seconds
      << " total=" << stats.total_seconds;
}

TEST(SparsifierStatsContract, SerialPathPartitionsTotalTime) {
  const Graph g = instance(2000, 17);
  SparsifierStats stats;
  const Graph gd = sparsify(g, 8, 99, 1, &stats);
  EXPECT_GT(gd.num_edges(), 0u);
  EXPECT_GT(stats.total_seconds, 0.0);
  expect_contract(stats, "serial sparsify");
}

TEST(SparsifierStatsContract, FusedParallelPathPartitionsTotalTime) {
  const Graph g = instance(2000, 17);
  SparsifierStats stats;
  const Graph gd = sparsify(g, 8, 99, 4, &stats);
  EXPECT_GT(gd.num_edges(), 0u);
  EXPECT_GT(stats.total_seconds, 0.0);
  expect_contract(stats, "fused parallel sparsify");
}

}  // namespace
}  // namespace matchsparse
