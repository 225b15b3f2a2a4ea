#include "serve/cache.hpp"

#include <utility>

namespace matchsparse::serve {

namespace {

guard::RunGuard::Limits cache_limits(std::uint64_t cap_bytes) {
  guard::RunGuard::Limits l;
  l.mem_budget_bytes = cap_bytes;
  return l;
}

}  // namespace

GraphCache::GraphCache(std::uint64_t cap_bytes)
    : guard_(cache_limits(cap_bytes)) {
  stats_.bytes_cap = cap_bytes;
}

std::uint64_t GraphCache::graph_bytes(const Graph& g) {
  // The two CSR arrays dominate; the fixed header is charged so even an
  // empty graph has nonzero footprint.
  return (static_cast<std::uint64_t>(g.num_vertices()) + 1) *
             sizeof(EdgeIndex) +
         2 * g.num_edges() * sizeof(VertexId) + sizeof(Graph);
}

std::string GraphCache::graph_key(const std::string& source) {
  return "g:" + source;
}

std::string GraphCache::sparsifier_key(const SparsifierKey& key) {
  // The source is length-prefixed so a '/'-containing client name can
  // never alias another source's (Δ, seed) suffix.
  return "s:" + std::to_string(key.source.size()) + ":" + key.source + "/" +
         std::to_string(key.delta) + "/" + std::to_string(key.seed);
}

std::shared_ptr<const Graph> GraphCache::get_locked(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->graph;
}

std::shared_ptr<const Graph> GraphCache::get_graph(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  return get_locked(graph_key(source));
}

std::shared_ptr<const Graph> GraphCache::get_sparsifier(
    const SparsifierKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return get_locked(sparsifier_key(key));
}

void GraphCache::erase_locked(Lru::iterator it, std::uint64_t* bytes_freed) {
  if (bytes_freed != nullptr) *bytes_freed += it->charge.bytes();
  if (it->is_graph) {
    --stats_.graphs;
  } else {
    --stats_.sparsifiers;
  }
  index_.erase(it->key);
  lru_.erase(it);  // ~MemCharge releases the budget bytes
}

void GraphCache::erase_dependents_locked(const std::string& source) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    const auto next = std::next(it);
    if (!it->is_graph && it->source == source) {
      erase_locked(it, nullptr);
      ++stats_.evictions;
    }
    it = next;
  }
}

std::shared_ptr<const Graph> GraphCache::put_locked(
    const std::string& key, const std::string& source, bool is_graph, Graph g,
    std::uint64_t* bytes_charged, bool* replaced) {
  if (bytes_charged != nullptr) *bytes_charged = 0;
  if (replaced != nullptr) *replaced = false;

  // Replace-in-place: drop the old identity first. A replaced *graph*
  // also invalidates every sparsifier derived from it — they were built
  // from edges that no longer exist under this name.
  if (const auto old = index_.find(key); old != index_.end()) {
    if (replaced != nullptr) *replaced = true;
    erase_locked(old->second, nullptr);
    ++stats_.evictions;
  }
  if (is_graph) erase_dependents_locked(source);

  const std::uint64_t bytes = graph_bytes(g);
  auto shared = std::make_shared<const Graph>(std::move(g));
  if (bytes > guard_.memory().cap()) {
    // Larger than the whole cache: hand the graph back uncached.
    ++stats_.refused;
    return shared;
  }

  // Evict from the LRU tail until the newcomer fits the cap. An evicted
  // graph takes its sparsifiers with it: MATCH and SPARSIFY refuse an
  // unknown graph before any sparsifier lookup, so they would sit
  // charged but unreachable until a re-LOAD dropped them. For the same
  // reason a sparsifier never evicts its own graph; it is handed back
  // uncached instead.
  while (guard_.memory().used() + bytes > guard_.memory().cap() &&
         !lru_.empty()) {
    const auto victim = std::prev(lru_.end());
    if (victim->is_graph) {
      if (!is_graph && victim->source == source) return shared;
      erase_dependents_locked(victim->source);
    }
    erase_locked(victim, nullptr);
    ++stats_.evictions;
  }

  Entry e;
  e.key = key;
  e.source = source;
  e.graph = shared;
  e.is_graph = is_graph;
  {
    // MemCharge binds to the thread's installed guard; install the
    // cache's own for the charge so the bytes account against the cache
    // cap, not against whatever request context called us.
    const guard::ScopedGuard installed(guard_);
    try {
      e.charge = guard::MemCharge(bytes, "serve.cache.entry");
    } catch (const guard::BudgetExceeded&) {
      // Unreachable given the eviction loop above, but harmless: refuse.
      ++stats_.refused;
      return shared;
    }
  }
  if (bytes_charged != nullptr) *bytes_charged = bytes;
  lru_.push_front(std::move(e));
  index_[key] = lru_.begin();
  if (is_graph) {
    ++stats_.graphs;
  } else {
    ++stats_.sparsifiers;
  }
  return shared;
}

std::shared_ptr<const Graph> GraphCache::put_graph(const std::string& source,
                                                   Graph g,
                                                   std::uint64_t* bytes_charged,
                                                   bool* replaced) {
  std::lock_guard<std::mutex> lock(mu_);
  return put_locked(graph_key(source), source, /*is_graph=*/true,
                    std::move(g), bytes_charged, replaced);
}

std::shared_ptr<const Graph> GraphCache::put_sparsifier(
    const SparsifierKey& key, Graph g, std::uint64_t* bytes_charged) {
  std::lock_guard<std::mutex> lock(mu_);
  return put_locked(sparsifier_key(key), key.source, /*is_graph=*/false,
                    std::move(g), bytes_charged, nullptr);
}

void GraphCache::evict(const std::string& source, std::uint32_t* entries,
                       std::uint64_t* bytes_freed) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t dropped = 0;
  std::uint64_t freed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const auto next = std::next(it);
    if (source.empty() || it->source == source) {
      erase_locked(it, &freed);
      ++dropped;
      ++stats_.evictions;
    }
    it = next;
  }
  if (entries != nullptr) *entries = dropped;
  if (bytes_freed != nullptr) *bytes_freed = freed;
}

GraphCache::Stats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.bytes_used = guard_.memory().used();
  return s;
}

}  // namespace matchsparse::serve
