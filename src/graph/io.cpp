#include "graph/io.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>

namespace matchsparse {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

void save_edge_list(const Graph& g, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "w"));
  if (file == nullptr) {
    throw IoError(path, 0, "cannot open for writing");
  }
  std::fprintf(file.get(), "%u %" PRIu64 "\n", g.num_vertices(),
               g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) std::fprintf(file.get(), "%u %u\n", u, v);
    }
  }
  if (std::ferror(file.get()) != 0) {
    throw IoError(path, 0, "write error");
  }
}

Graph load_edge_list(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "r"));
  if (file == nullptr) {
    throw IoError(path, 0, "cannot open");
  }

  char line[256];
  std::size_t lineno = 0;  // 1-based number of the line currently held
  auto next_line = [&]() -> bool {
    while (std::fgets(line, sizeof(line), file.get()) != nullptr) {
      ++lineno;
      if (line[0] != '#' && line[0] != '\n') return true;
    }
    return false;
  };
  auto fail = [&](const std::string& reason) -> IoError {
    return IoError(path, lineno, reason);
  };

  if (!next_line()) {
    throw IoError(path, 0,
                  lineno == 0 ? "empty file" : "missing header");
  }
  std::uint64_t n = 0, m = 0;
  if (std::sscanf(line, "%" SCNu64 " %" SCNu64, &n, &m) != 2) {
    throw fail("bad header (expected \"n m\")");
  }
  if (n > kNoVertex) throw fail("vertex count exceeds 32-bit id space");

  // The header's count is a claim, not a size: every edge line takes at
  // least 4 bytes ("u v\n"), so the file bounds the reservation, and a
  // header that overstates m fails below as a truncated list.
  std::error_code size_error;
  const std::uintmax_t bytes = std::filesystem::file_size(path, size_error);
  EdgeList edges;
  edges.reserve(size_error ? 0 : std::min<std::uint64_t>(m, bytes / 4));
  for (std::uint64_t i = 0; i < m; ++i) {
    if (!next_line()) {
      throw IoError(path, lineno,
                    "truncated edge list (" + std::to_string(i) + " of " +
                        std::to_string(m) + " edges)");
    }
    std::uint64_t u = 0, v = 0;
    if (std::sscanf(line, "%" SCNu64 " %" SCNu64, &u, &v) != 2) {
      throw fail("bad edge line (expected \"u v\")");
    }
    if (u >= n || v >= n) throw fail("endpoint out of range");
    if (u == v) throw fail("self-loop");
    edges.push_back(
        Edge(static_cast<VertexId>(u), static_cast<VertexId>(v)).normalized());
  }
  std::sort(edges.begin(), edges.end());
  const auto dup = std::adjacent_find(edges.begin(), edges.end());
  if (dup != edges.end()) {
    // The sort lost the original line; name the edge instead.
    throw IoError(path, 0,
                  "duplicate edge " + std::to_string(dup->u) + " " +
                      std::to_string(dup->v));
  }
  return Graph::from_edges(static_cast<VertexId>(n), edges);
}

}  // namespace matchsparse
