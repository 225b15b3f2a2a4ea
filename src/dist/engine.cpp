#include "dist/engine.hpp"

#include <algorithm>
#include <string>

#include "guard/guard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace matchsparse::dist {

namespace {

/// Mirrors one run's TrafficStats deltas into the metrics registry (the
/// façade described in the header): "dist.*" counters. Called once per
/// run, so plain registry lookups are fine for every name — and required
/// since §14: obs::counter() resolves the AMBIENT registry, so a
/// static-cached reference would pin the first request's registry for
/// all later runs.
void publish_traffic(const std::string& prefix, const TrafficStats& s) {
  obs::counter("dist.msgs.sent").add(s.messages);
  obs::counter("dist.bits.sent").add(s.bits);
  obs::counter("dist.msgs.retransmitted").add(s.retransmissions);
  obs::counter("dist.msgs.dropped").add(s.dropped);
  obs::counter("dist.msgs.duplicated").add(s.duplicated);
  obs::counter("dist.msgs.delayed").add(s.delayed);
  obs::counter("dist.acks.sent").add(s.acks);
  obs::counter("dist.rounds.total").add(s.rounds);
  obs::counter("dist.rounds.active").add(s.active_rounds);
  obs::counter("dist.rounds.recovery").add(s.recovery_rounds);
  obs::counter("dist.rounds.crashed_node").add(s.crashed_node_rounds);
  obs::counter("dist.runs.total").add(1);
  if (s.completed) obs::counter("dist.runs.completed").add(1);
  obs::counter(prefix + ".msgs").add(s.messages);
  obs::counter(prefix + ".bits").add(s.bits);
}

}  // namespace

namespace {
/// Substream label for the fault layer, disjoint from node substreams
/// (which use mix64(seed, v) with v < n <= 2^32).
constexpr std::uint64_t kFaultStream = 0xfa010c0de0000001ULL;
}  // namespace

VertexId NodeContext::degree() const { return net_.g_.degree(id_); }

VertexId NodeContext::neighbor_id(VertexId port) const {
  return net_.g_.neighbor(id_, port);
}

void NodeContext::send(VertexId port, Message msg, bool retransmission) {
  net_.deliver(id_, port, std::move(msg), retransmission);
}

void NodeContext::broadcast(Message msg, bool retransmission) {
  net_.deliver_broadcast(id_, std::move(msg), retransmission);
}

Rng& NodeContext::rng() { return net_.node_rngs_[id_]; }

bool NodeContext::lossless() const { return net_.lossless(); }

Network::Network(const Graph& g, std::uint64_t seed, FaultPlan plan)
    : g_(g),
      plan_(std::move(plan)),
      fault_rng_(mix64(seed, kFaultStream)),
      inbox_(g.num_vertices()),
      pending_(g.num_vertices()),
      down_until_(g.num_vertices(), 0),
      offsets_(g.num_vertices() + 1, 0) {
  node_rngs_.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    node_rngs_.emplace_back(mix64(seed, v));
  }
  // Precompute reverse ports: for port i of v pointing at w, the index of
  // v inside w's (sorted) adjacency list.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    offsets_[v + 1] = offsets_[v] + g.degree(v);
  }
  reverse_port_.resize(offsets_.back());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (VertexId i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      const auto wn = g.neighbors(w);
      const auto it = std::lower_bound(wn.begin(), wn.end(), v);
      MS_DCHECK(it != wn.end() && *it == v);
      reverse_port_[offsets_[v] + i] =
          static_cast<VertexId>(it - wn.begin());
    }
  }
}

VertexId Network::reverse_port(VertexId v, VertexId port) const {
  MS_DCHECK(port < g_.degree(v));
  return reverse_port_[offsets_[v] + port];
}

void Network::account_send(const Message& msg, bool retransmission) {
  ++round_messages_;
  ++stats_.messages;
  stats_.bits += msg.bits();
  if (retransmission) ++stats_.retransmissions;
  if (msg.frame == Message::kAck) ++stats_.acks;
}

/// Applies per-copy fault draws and queues the copy for delivery. Faults
/// act only while round_ < fault_rounds; afterwards the copy takes the
/// normal next-round path.
void Network::enqueue_copy(VertexId to, VertexId arrival_port, Message msg) {
  const bool faults_active = plan_.can_fault() && round_ < plan_.fault_rounds;
  std::size_t due = round_ + 1;
  if (faults_active) {
    if (plan_.drop_prob > 0.0 && fault_rng_.chance(plan_.drop_prob)) {
      ++stats_.dropped;
      return;
    }
    if (plan_.delay_prob > 0.0 && fault_rng_.chance(plan_.delay_prob)) {
      due += 1 + fault_rng_.below(std::max<std::size_t>(
                     1, plan_.max_extra_delay));
      ++stats_.delayed;
    }
    if (plan_.dup_prob > 0.0 && fault_rng_.chance(plan_.dup_prob)) {
      // The duplicate takes its own (possibly different) delivery round,
      // so dup + delay exercises cross-round reordering of equal frames.
      std::size_t dup_due = round_ + 1;
      if (plan_.delay_prob > 0.0 && fault_rng_.chance(plan_.delay_prob)) {
        dup_due += 1 + fault_rng_.below(std::max<std::size_t>(
                           1, plan_.max_extra_delay));
      }
      ++stats_.duplicated;
      pending_[to].push_back(Pending{dup_due, Incoming{arrival_port, msg}});
    }
  }
  pending_[to].push_back(Pending{due, Incoming{arrival_port, std::move(msg)}});
}

void Network::deliver(VertexId from, VertexId port, Message msg,
                      bool retransmission) {
  MS_CHECK_MSG(port < g_.degree(from), "send() on nonexistent port");
  const VertexId to = g_.neighbor(from, port);
  account_send(msg, retransmission);
  enqueue_copy(to, reverse_port(from, port), std::move(msg));
}

void Network::deliver_broadcast(VertexId from, Message msg,
                                bool retransmission) {
  const VertexId deg = g_.degree(from);
  if (deg == 0) return;
  account_send(msg, retransmission);
  for (VertexId port = 0; port < deg; ++port) {
    const VertexId to = g_.neighbor(from, port);
    enqueue_copy(to, reverse_port(from, port), msg);
  }
}

/// Starts scripted and random outages whose time has come. Random crash
/// draws are taken in node order, one per alive node per round, so the
/// schedule is a pure function of (plan, seed).
void Network::advance_crashes() {
  for (const CrashEvent& ev : plan_.scripted_crashes) {
    if (ev.round == round_ && ev.node < num_nodes()) {
      down_until_[ev.node] =
          std::max(down_until_[ev.node], round_ + ev.duration);
    }
  }
  if (plan_.crash_prob > 0.0 && round_ < plan_.fault_rounds) {
    for (VertexId v = 0; v < num_nodes(); ++v) {
      if (round_ < down_until_[v]) continue;
      if (fault_rng_.chance(plan_.crash_prob)) {
        down_until_[v] = round_ + std::max<std::size_t>(
                                      1, plan_.crash_duration);
      }
    }
  }
}

/// Moves every pending copy whose due round has arrived into its inbox,
/// preserving send order; copies addressed to a crashed node are lost.
void Network::collect_due_messages() {
  for (VertexId v = 0; v < num_nodes(); ++v) {
    inbox_[v].clear();
    auto& queue = pending_[v];
    if (queue.empty()) continue;
    const bool down = round_ < down_until_[v];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      Pending& p = queue[i];
      if (p.due > round_) {
        // Guard against self-move: it would empty the message blob.
        if (keep != i) queue[keep] = std::move(p);
        ++keep;
      } else if (down) {
        ++stats_.dropped;
      } else {
        inbox_[v].push_back(std::move(p.in));
      }
    }
    queue.resize(keep);
  }
}

TrafficStats Network::run(Protocol& protocol, std::size_t max_rounds) {
  const obs::Span span(std::string("dist.run.") + protocol.name());
  stats_ = TrafficStats{};
  for (VertexId v = 0; v < num_nodes(); ++v) {
    inbox_[v].clear();
    pending_[v].clear();
    down_until_[v] = 0;
  }

  // Per-round traffic distributions, resolved once per run; observe()
  // takes no lock, so the round loop writes them directly.
  const std::string prefix = std::string("dist.") + protocol.name();
  obs::BucketHistogram& round_msgs =
      obs::bucket_histogram(prefix + ".round.msgs");
  obs::BucketHistogram& round_bits =
      obs::bucket_histogram(prefix + ".round.bits");

  for (round_ = 0; round_ < max_rounds; ++round_) {
    if (protocol.done()) {
      stats_.completed = true;
      break;
    }
    // Per-round cancellation point. A clean break (not a throw) keeps
    // the protocol and network destructible mid-simulation and lets the
    // caller read the partial stats: completed stays false, which is the
    // engine's existing "stage did not converge" signal, and the
    // orchestrator turns it into a degraded outcome at a phase boundary.
    if (guard::poll()) break;
    round_messages_ = 0;
    const std::uint64_t bits_before = stats_.bits;
    advance_crashes();
    collect_due_messages();
    for (VertexId v = 0; v < num_nodes(); ++v) {
      if (round_ < down_until_[v]) {
        ++stats_.crashed_node_rounds;
        continue;
      }
      NodeContext ctx(*this, v, round_, inbox_[v]);
      protocol.on_round(ctx);
    }
    ++stats_.rounds;
    round_msgs.observe(static_cast<double>(round_messages_));
    round_bits.observe(static_cast<double>(stats_.bits - bits_before));
    if (round_messages_ > 0) ++stats_.active_rounds;
    if (plan_.can_fault() && round_ >= plan_.fault_rounds) {
      ++stats_.recovery_rounds;
    }
  }
  if (!stats_.completed && protocol.done()) stats_.completed = true;
  publish_traffic(prefix, stats_);
  return stats_;
}

}  // namespace matchsparse::dist
