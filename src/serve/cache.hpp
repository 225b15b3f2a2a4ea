// The daemon's graph + sparsifier cache (DESIGN.md §15).
//
// One LRU over two kinds of entries:
//
//   graph       key "g:<source>"                    — installed by LOAD
//   sparsifier  key "s:<len>:<source>/<Δ>/<seed>" — built by SPARSIFY
//               or a MATCH miss; the source is length-prefixed so a
//               '/'-containing name cannot alias another source's
//               numeric suffix
//
// The sparsifier key is exactly the determinism identity of
// build_matching_sparsifier: G_Δ is a pure function of (graph, Δ, seed)
// at every lane count. Two requests that agree on (source, β, ε, seed)
// therefore share one cached G_Δ, whatever lanes each asked for, and get
// bit-identical matchings out of it. A source whose max
// degree is at most 2Δ (sparsifier_is_graph) never gets a sparsifier
// entry: its G_Δ is the graph itself, so the daemon serves MATCH and
// SPARSIFY from the graph entry and the bytes are cached once.
//
// Byte accounting is MemCharge-backed: the cache owns a RunGuard whose
// MemoryBudget caps the resident bytes, and every entry holds a
// guard::MemCharge against it for as long as it lives in the cache.
// put() evicts LRU entries until the newcomer fits, and an evicted graph
// takes its dependent sparsifiers with it; an entry larger than the
// whole cap is refused (the caller serves it uncached). Lookups
// hand out shared_ptrs, so eviction never invalidates a graph an
// in-flight request is still matching on — the bytes of an evicted but
// still-referenced graph are uncharged immediately (the cache cap bounds
// *cached* bytes; in-flight working memory is each request's own
// mem_budget's business).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "graph/graph.hpp"
#include "guard/guard.hpp"

namespace matchsparse::serve {

/// Cache identity of one sparsifier.
struct SparsifierKey {
  std::string source;
  VertexId delta = 0;
  std::uint64_t seed = 0;
};

class GraphCache {
 public:
  explicit GraphCache(std::uint64_t cap_bytes);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t refused = 0;  // entries larger than the whole cap
    std::uint64_t bytes_used = 0;
    std::uint64_t bytes_cap = 0;
    std::uint32_t graphs = 0;
    std::uint32_t sparsifiers = 0;
  };

  /// nullptr on miss. A hit refreshes recency.
  std::shared_ptr<const Graph> get_graph(const std::string& source);
  std::shared_ptr<const Graph> get_sparsifier(const SparsifierKey& key);

  /// Installs (replacing any previous entry of the same identity; a
  /// replaced graph drops its dependent sparsifiers too). Returns the
  /// shared handle — non-null even when caching was refused for size,
  /// so callers always get their graph back. `bytes_charged` reports
  /// the resident charge (0 when refused); `replaced` whether an old
  /// graph of this name was dropped.
  std::shared_ptr<const Graph> put_graph(const std::string& source, Graph g,
                                         std::uint64_t* bytes_charged,
                                         bool* replaced);
  std::shared_ptr<const Graph> put_sparsifier(const SparsifierKey& key,
                                              Graph g,
                                              std::uint64_t* bytes_charged);

  /// Drops `source`'s graph and every sparsifier derived from it;
  /// empty source drops everything. Returns entries dropped and the
  /// bytes uncharged.
  void evict(const std::string& source, std::uint32_t* entries,
             std::uint64_t* bytes_freed);

  Stats stats() const;

  /// Resident CSR bytes of a graph — the unit of all accounting here.
  static std::uint64_t graph_bytes(const Graph& g);

 private:
  struct Entry {
    std::string key;
    std::string source;  // owning source name (for dependent eviction)
    std::shared_ptr<const Graph> graph;
    guard::MemCharge charge;
    bool is_graph = false;
  };
  using Lru = std::list<Entry>;

  std::shared_ptr<const Graph> get_locked(const std::string& key);
  std::shared_ptr<const Graph> put_locked(const std::string& key,
                                          const std::string& source,
                                          bool is_graph, Graph g,
                                          std::uint64_t* bytes_charged,
                                          bool* replaced);
  void erase_locked(Lru::iterator it, std::uint64_t* bytes_freed);
  /// Drops every sparsifier of `source`, each counted as an eviction.
  void erase_dependents_locked(const std::string& source);

  static std::string graph_key(const std::string& source);
  static std::string sparsifier_key(const SparsifierKey& key);

  // guard_ is declared before the entry containers: entries hold
  // MemCharges against its budget and must be destroyed first (members
  // destruct in reverse declaration order).
  guard::RunGuard guard_;
  mutable std::mutex mu_;
  Lru lru_;  // front = most recently used
  std::unordered_map<std::string, Lru::iterator> index_;
  Stats stats_;
};

}  // namespace matchsparse::serve
