// The matchsparse_serve daemon core (DESIGN.md §15).
//
// A Server owns one GraphCache and serves the serve/protocol.hpp frame
// protocol over any number of connections: a unix-domain listener, an
// optional loopback TCP listener, and in-process socketpair connections
// (connect_in_process()) — the test harness runs client and server in
// one process over the latter, so the end-to-end tests exercise the
// exact production byte stream without touching the filesystem.
//
// Threading model: one accept thread per listener, one session thread
// per connection, and each connection's frames processed strictly in
// order (pipelining works — replies come back in request order, paired
// by the echoed request id). Every job request (SPARSIFY/MATCH/PIPELINE)
// runs inside its own guard::RunContext, so per-request metrics, traces
// and guard trips never bleed between concurrent connections; the
// request's QoS envelope (deadline / memory budget / degradation mode)
// comes from the frame itself. A finished request's metrics fold into
// the telemetry plane's registry (serve/telemetry.hpp), the one
// aggregate STATS reads, and never into the process-global registry.
//
// Admission control:
//   - at most `max_inflight` jobs run concurrently; the next one is
//     refused with kShed (cheap, immediate — the client retries or
//     backs off),
//   - a request's nonzero memory budget is clamped to what the cache
//     cap has not already promised to concurrent requests (min 1 byte),
//     so an over-committed server sheds load through the degradation
//     ladder — the clamped run trips kBudget and degrades — instead of
//     overcommitting RAM.
//
// Shutdown: a SHUTDOWN frame (or stop()) flips the server into draining
// mode — new jobs are refused with kShuttingDown, in-flight contexts are
// cancelled (the ladder's parent-linked rung guards observe it), and
// wait() returns so the owner can stop() and join.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/api.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/telemetry.hpp"
#include "serve/transport.hpp"

namespace matchsparse::guard {
class RunContext;
}

namespace matchsparse::serve {

struct ServerOptions {
  /// Unix-domain socket path; empty = no unix listener (in-process
  /// connections still work). A stale socket file is unlinked first.
  std::string socket_path;
  /// Loopback TCP port; -1 = no TCP listener, 0 = ephemeral (read the
  /// bound port back with Server::tcp_port()).
  int tcp_port = -1;
  /// GraphCache capacity, and the pool the budget clamp promises from.
  std::uint64_t cache_bytes = 256ull << 20;
  /// Concurrent job ceiling before kShed; 0 = unlimited.
  std::uint32_t max_inflight = 8;
  /// LOAD caps (kTooLarge beyond these).
  VertexId max_vertices = 1u << 27;
  EdgeIndex max_edges = 1ull << 32;
  /// Per-job `threads` ceiling (kBadConfig beyond it): the lane count
  /// sizes per-lane working arrays in the parallel sparsifier, so a
  /// client must not pick it freely. 0 (one lane per pool worker) is
  /// always admitted.
  std::uint64_t max_job_threads = 256;
  /// When non-empty, every job request writes its per-request metrics
  /// snapshot to "<metrics_prefix>.req<serial>.json" (the serve analogue
  /// of the CLI's --metrics=<path> per-request manifests).
  std::string metrics_prefix;
  /// When non-empty, per-request Chrome traces go to
  /// "<trace_prefix>.req<serial>.json".
  std::string trace_prefix;
  /// Flight-recorder ring slots (clamped >= 1; ~80 bytes per slot,
  /// allocated once at construction).
  std::size_t flight_capacity = 256;
  /// When non-empty, every guard-tripped request overwrites this file
  /// with the full flight-ring ndjson dump (the incident artifact).
  std::string flight_path;
  /// Master switch for the serving-path latency histograms and outcome
  /// counters (the STATS format=1 exposition body). The flight recorder
  /// stays on regardless — see serve/telemetry.hpp.
  bool telemetry = true;
  /// Per-session read deadline in ms — the idle-session reaper: a
  /// connection that sends nothing for this long is dropped, so a
  /// stalled or half-open peer cannot pin a session thread forever.
  /// 0 = off (the legacy fully-blocking behavior; in-process test
  /// harnesses that park idle control connections rely on it).
  double session_idle_timeout_ms = 0.0;
  /// Per-send deadline in ms for reply frames: a peer that stops
  /// draining its socket while a reply is in flight loses the
  /// connection instead of wedging the session in send(). 0 = off.
  double session_write_timeout_ms = 0.0;
  /// Backoff hint stamped on kShed refusals (ErrorReply::retry_after_ms);
  /// RetryingClient sleeps at least this long before the retry.
  double shed_retry_after_ms = 20.0;
  /// Capacity of the idempotency-token dedup window (completed replies
  /// kept for replay, evicted LRU). 0 disables token dedup entirely —
  /// tokens are then ignored and every request executes.
  std::size_t dedup_window = 1024;
  /// Chaos hook: when set, every session's transport is passed through
  /// this wrapper before serving (the chaos soak injects a seeded
  /// FaultTransport on the server side of in-process connections).
  std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>
      transport_wrapper;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the configured listeners and their accept threads. False on
  /// bind/listen failure with a diagnostic in *error. With no listeners
  /// configured this is a no-op success (in-process serving only).
  bool start(std::string* error);

  /// Blocks until a SHUTDOWN frame arrives or stop() is called.
  void wait();

  /// Drain and join: refuse new jobs, cancel in-flight contexts, wake
  /// blocked sessions, join every thread. Idempotent.
  void stop();

  /// One end of a fresh socketpair whose other end is served by a new
  /// session thread; the caller owns (and must close) the returned fd.
  /// -1 on failure or when already shutting down.
  int connect_in_process();

  /// Port actually bound (ephemeral support); -1 when no TCP listener.
  int tcp_port() const { return bound_tcp_port_; }

  bool shutting_down() const {
    return stopping_.load(std::memory_order_acquire);
  }

  GraphCache& cache() { return cache_; }

  /// Jobs running now.
  std::uint32_t inflight() const {
    return inflight_count_.load(std::memory_order_relaxed);
  }

  /// The live telemetry plane: latency histograms, the server counters
  /// (value(ServeCounter)), outcome counters, the flight recorder, and
  /// the Prometheus renderer (DESIGN.md §16).
  ServeTelemetry& telemetry_plane() { return telemetry_plane_; }
  const ServeTelemetry& telemetry_plane() const { return telemetry_plane_; }

  /// The flight ring as ndjson, newest state at call time — what
  /// SIGUSR1 in the daemon tool and STATS format=2 hand out.
  std::string flight_ndjson() const {
    return telemetry_plane_.flight().dump_ndjson();
  }

 private:
  struct Inflight;

  void accept_loop(int listen_fd);
  void session(int fd);
  /// False (with fd closed) when refused because the server is draining.
  bool spawn_session(int fd);
  void reap_finished_locked();
  /// Flip into draining mode: refuse new jobs, cancel in-flight
  /// contexts. Does NOT join or wake wait() (a session thread calls
  /// this on SHUTDOWN and must get its ack out before the owner's
  /// stop() severs the session; stop() joins from the owner thread).
  void begin_drain();
  /// Wake wait()ers; called after begin_drain() once it is safe for
  /// the owner to proceed to stop().
  void notify_stop();

  bool send_frame(Transport& t, const Frame& f);
  bool send_error(Transport& t, std::uint64_t id, ErrorCode code,
                  const std::string& message, double retry_after_ms = 0.0);

  /// Frame dispatch; false ⇒ the connection must be dropped (send
  /// failure or poisoned decoder — never a mere request error).
  /// `queue_ms` is how long the frame's bytes sat decoded-but-undispatched
  /// on the session (pipelined frames queue behind their predecessors).
  bool handle_frame(Transport& t, const Frame& f, double queue_ms);
  bool handle_load(Transport& t, const Frame& f);
  bool handle_job(Transport& t, const Frame& f, double queue_ms);
  /// The old handle_job body; fills `rec` (flight record) as it goes.
  bool handle_job_impl(Transport& t, const Frame& f, FlightRecord* rec);
  bool handle_stats(Transport& t, const Frame& f);
  bool handle_evict(Transport& t, const Frame& f);
  bool handle_cancel(Transport& t, const Frame& f);
  bool handle_shutdown(Transport& t, const Frame& f);

  MatchReply run_match(const JobRequest& req,
                       const std::shared_ptr<const Graph>& graph,
                       std::uint64_t serial, std::uint64_t budget,
                       bool use_cache);
  bool run_sparsify(const JobRequest& req,
                    const std::shared_ptr<const Graph>& graph,
                    std::uint64_t budget, SparsifyReply* reply,
                    ErrorReply* error);

  /// Clamps a nonzero requested budget to the unpromised remainder of
  /// the cache cap (min 1 byte). 0 (unlimited) passes through.
  std::uint64_t grant_budget(std::uint64_t requested);
  void return_budget(std::uint64_t granted);

  void export_request_artifacts(guard::RunContext& ctx, std::uint64_t serial);

  /// Overwrites opts_.flight_path with the ring dump when `rec` ended
  /// on a guard trip (serialized; concurrent trips don't interleave).
  void maybe_dump_flight(const FlightRecord& rec);

  ServerOptions opts_;
  GraphCache cache_;
  ServeTelemetry telemetry_plane_;
  std::mutex flight_dump_mu_;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::mutex join_mu_;    // serializes stop()'s whole teardown sequence
  bool stopped_ = false;  // teardown ran to completion; guarded by join_mu_

  std::vector<int> listen_fds_;
  std::vector<std::thread> accept_threads_;
  int bound_tcp_port_ = -1;

  struct SessionSlot {
    std::thread thread;
    int fd = -1;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex sessions_mu_;
  std::vector<SessionSlot> sessions_;

  std::mutex inflight_mu_;
  std::unordered_map<std::uint64_t, guard::RunContext*> inflight_;
  std::uint64_t promised_budget_ = 0;

  // -------------------------------------------------------------------
  // Idempotency-token dedup window (DESIGN.md §17). One entry per
  // token: kRunning while the first arrival executes, kDone with the
  // completed reply frame for replay, gone once evicted LRU. The
  // find-or-insert under dedup_mu_ is the single-execution
  // serialization point — a retry that lands on ANY connection while
  // the original is still in flight waits on the entry's cv and gets
  // the same reply, never a second execution.
  struct TokenEntry {
    enum class State : std::uint8_t { kRunning, kDone, kAborted };
    State state = State::kRunning;
    std::condition_variable cv;  // guarded by dedup_mu_
    Frame reply;                 // valid when kDone; request id re-stamped
                                 // per replay
  };
  /// Find-or-insert for a nonzero token. *owner true ⇒ this thread must
  /// execute the job and later complete_token()/abort_token().
  std::shared_ptr<TokenEntry> claim_token(std::uint64_t token, bool* owner);
  /// Publish the completed reply frame BEFORE it is sent, flip kDone,
  /// wake waiters, and evict beyond opts_.dedup_window (LRU) — so a
  /// reset mid-reply still replays on retry.
  void complete_token(std::uint64_t token,
                      const std::shared_ptr<TokenEntry>& entry,
                      const Frame& reply_frame);
  /// The owner's attempt was refused before execution: remove the entry
  /// so a retry starts fresh, and fail waiters retryably.
  void abort_token(std::uint64_t token,
                   const std::shared_ptr<TokenEntry>& entry);
  /// A follower's path: wait out a kRunning entry, then replay (kDone)
  /// or refuse retryably (kAborted / drain).
  bool serve_token_entry(Transport& t, const Frame& f,
                         const std::shared_ptr<TokenEntry>& entry,
                         FlightRecord* rec);

  std::mutex dedup_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<TokenEntry>> dedup_;
  std::deque<std::uint64_t> dedup_lru_;  // kDone tokens, oldest first

  std::atomic<std::uint64_t> next_serial_{0};
  /// Admission compares and swaps it against max_inflight.
  std::atomic<std::uint32_t> inflight_count_{0};
};

}  // namespace matchsparse::serve
