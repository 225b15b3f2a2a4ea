#include <gtest/gtest.h>

#include <cstdio>

#include "gen/generators.hpp"
#include "gen/quasi_unit_disk.hpp"
#include "graph/beta.hpp"
#include "graph/io.hpp"

namespace matchsparse {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(GraphIo, RoundTrip) {
  Rng rng(1);
  const Graph g = gen::erdos_renyi(60, 5.0, rng);
  const std::string path = temp_path("roundtrip.edges");
  save_edge_list(g, path);
  const Graph loaded = load_edge_list(path);
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.edge_list(), g.edge_list());
  std::remove(path.c_str());
}

TEST(GraphIo, CommentsAndBlankLines) {
  const std::string path = temp_path("comments.edges");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# a comment\n\n3 2\n# another\n0 1\n\n1 2\n", f);
  std::fclose(f);
  const Graph g = load_edge_list(path);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  std::remove(path.c_str());
}

// Writes `content` to a temp file and returns the IoError load_edge_list
// throws for it (failing the test if it does not throw).
IoError load_error(const char* name, const char* content) {
  const std::string path = temp_path(name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(content, f);
  std::fclose(f);
  try {
    load_edge_list(path);
  } catch (const IoError& e) {
    std::remove(path.c_str());
    return e;
  }
  std::remove(path.c_str());
  ADD_FAILURE() << "load_edge_list(" << name << ") did not throw";
  return IoError("", 0, "");
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/nowhere.edges"), IoError);
  try {
    load_edge_list("/nonexistent/nowhere.edges");
  } catch (const IoError& e) {
    EXPECT_EQ(e.line(), 0u);
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(GraphIo, EmptyFileThrows) {
  const IoError e = load_error("empty.edges", "");
  EXPECT_NE(std::string(e.what()).find("empty file"), std::string::npos);
}

TEST(GraphIo, TruncatedHeaderThrows) {
  // A comment-only file has lines but no header.
  const IoError e = load_error("noheader.edges", "# only a comment\n");
  EXPECT_NE(std::string(e.what()).find("missing header"), std::string::npos);
}

TEST(GraphIo, BadHeaderThrows) {
  const IoError e = load_error("badheader.edges", "three two\n0 1\n");
  EXPECT_EQ(e.line(), 1u);
  EXPECT_NE(std::string(e.what()).find("bad header"), std::string::npos);
}

TEST(GraphIo, TruncatedEdgeListThrows) {
  const IoError e = load_error("truncated.edges", "4 3\n0 1\n");
  EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
}

TEST(GraphIo, OverstatedEdgeCountIsATruncatedList) {
  // The header's count must not size an allocation up front: 3e18 edges
  // would not fit in memory (or a vector), and the file holds one.
  const IoError e =
      load_error("overstated.edges", "3 3000000000000000000\n0 1\n");
  EXPECT_NE(std::string(e.what()).find("overstated.edges"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find(
                "truncated edge list (1 of 3000000000000000000 edges)"),
            std::string::npos);
}

TEST(GraphIo, BadEdgeLineThrows) {
  const IoError e = load_error("badedge.edges", "3 2\n0 1\nx y\n");
  EXPECT_EQ(e.line(), 3u);
  EXPECT_NE(std::string(e.what()).find("bad edge line"), std::string::npos);
}

TEST(GraphIo, OutOfRangeEndpointThrows) {
  const IoError e = load_error("range.edges", "3 1\n0 7\n");
  EXPECT_EQ(e.line(), 2u);
  EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
}

TEST(GraphIo, SelfLoopThrows) {
  const IoError e = load_error("selfloop.edges", "3 2\n0 1\n2 2\n");
  EXPECT_EQ(e.line(), 3u);
  EXPECT_NE(std::string(e.what()).find("self-loop"), std::string::npos);
}

TEST(GraphIo, DuplicateEdgeThrows) {
  // Also duplicated under reversal: {1,0} == {0,1}.
  const IoError e = load_error("dup.edges", "3 2\n0 1\n1 0\n");
  EXPECT_NE(std::string(e.what()).find("duplicate edge 0 1"),
            std::string::npos);
}

TEST(GraphIo, ErrorMessageNamesFileAndLine) {
  const IoError e = load_error("located.edges", "2 1\n0 9\n");
  EXPECT_NE(std::string(e.what()).find("located.edges:2"),
            std::string::npos);
  EXPECT_EQ(e.line(), 2u);
  EXPECT_NE(e.path().find("located.edges"), std::string::npos);
}

TEST(QuasiUnitDisk, InnerAlwaysOuterNever) {
  Rng rng1(5), rng2(5);
  const double ri = 0.08, ro = 0.16;
  const Graph g = gen::quasi_unit_disk(120, ri, ro, 0.5, rng1);
  // Reproduce the points with the same seed.
  std::vector<double> x(120), y(120);
  for (VertexId i = 0; i < 120; ++i) {
    x[i] = rng2.uniform();
    y[i] = rng2.uniform();
  }
  for (VertexId i = 0; i < 120; ++i) {
    for (VertexId j = i + 1; j < 120; ++j) {
      const double dx = x[i] - x[j], dy = y[i] - y[j];
      const double d2 = dx * dx + dy * dy;
      if (d2 <= ri * ri) {
        EXPECT_TRUE(g.has_edge(i, j)) << i << "," << j;
      } else if (d2 > ro * ro) {
        EXPECT_FALSE(g.has_edge(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(QuasiUnitDisk, GrayZoneProbabilityExtremes) {
  Rng rng_all(7);
  const Graph all = gen::quasi_unit_disk(100, 0.05, 0.15, 1.0, rng_all);
  Rng rng_none(7);
  const Graph none = gen::quasi_unit_disk(100, 0.05, 0.15, 0.0, rng_none);
  EXPECT_GT(all.num_edges(), none.num_edges());
  // gray_p = 1 is a unit-disk graph at the outer radius; gray_p = 0 at
  // the inner radius.
  Rng rng_outer(7);
  EXPECT_EQ(all.num_edges(),
            gen::unit_disk(100, 0.15, rng_outer).num_edges());
}

TEST(QuasiUnitDisk, BoundedNeighborhoodIndependence) {
  // With ro/ri = 2 the neighborhood independence stays a small constant
  // (independent members are pairwise > ri apart inside an ro-disk:
  // a packing argument gives <= (1 + 2*ro/ri)^2 / ... — empirically ~10).
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(seed);
    const Graph g = gen::quasi_unit_disk(250, 0.06, 0.12, 0.5, rng);
    EXPECT_LE(neighborhood_independence(g).value, 12u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace matchsparse
