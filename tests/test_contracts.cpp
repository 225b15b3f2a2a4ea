// Contract (MS_CHECK) enforcement: misuse must abort loudly, not corrupt.
#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "matching/matching.hpp"
#include "util/table.hpp"

namespace matchsparse {
namespace {

TEST(GraphContracts, RejectsOutOfRangeEndpoint) {
  EXPECT_DEATH(Graph::from_edges(3, {{0, 5}}), "out of range");
}

TEST(GraphContracts, RejectsSelfLoop) {
  EXPECT_DEATH(Graph::from_edges(3, {{1, 1}}), "self-loop");
}

TEST(GraphContracts, RejectsDuplicateEdge) {
  EXPECT_DEATH(Graph::from_edges(3, {{0, 1}, {1, 0}}), "duplicate");
  // In-order duplicates take the strictly-increasing test, which a
  // duplicate always fails, so they still reach the check.
  EXPECT_DEATH(Graph::from_edges(3, {{0, 1}, {0, 1}}), "duplicate");
  EXPECT_DEATH(Graph::from_edges(3, {{0, 1}, {0, 2}, {0, 2}}), "duplicate");
}

TEST(GraphContracts, InducedSubgraphRejectsDuplicates) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  const std::vector<VertexId> dup{0, 0};
  EXPECT_DEATH((void)induced_subgraph(g, dup), "duplicate vertex");
}

TEST(TableContracts, CellBeforeRowAborts) {
  Table t("x", {"a"});
  EXPECT_DEATH(t.cell("v"), "cell\\(\\) before row\\(\\)");
}

TEST(TableContracts, TooManyCellsAborts) {
  Table t("x", {"a"});
  t.row().cell("1");
  EXPECT_DEATH(t.cell("2"), "too many cells");
}

TEST(TableContracts, EmptyColumnsAborts) {
  EXPECT_DEATH(Table("x", {}), "at least one column");
}

TEST(MatchingContracts, UnmatchedQueryIsSafeButMatchTwiceIsNot) {
  // match() on occupied endpoints is a debug-contract (MS_DCHECK); in
  // release builds the documented recourse is is_matched() first. Here we
  // check the documented query path only.
  Matching m(4);
  m.match(0, 1);
  EXPECT_TRUE(m.is_matched(0));
  EXPECT_FALSE(m.is_matched(2));
}

}  // namespace
}  // namespace matchsparse
