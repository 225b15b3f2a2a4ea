#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>

#include "guard/context.hpp"
#include "util/timer.hpp"

namespace matchsparse::serve {

namespace {

ApproxMatchingConfig config_for(const JobRequest& req) {
  ApproxMatchingConfig cfg;
  cfg.beta = req.beta;
  cfg.eps = req.eps;
  cfg.seed = req.seed;
  cfg.threads = static_cast<std::size_t>(req.threads);
  return cfg;
}

RunLimits limits_for(const JobRequest& req, std::uint64_t budget) {
  RunLimits limits;
  limits.deadline_ms = req.deadline_ms;
  limits.mem_budget_bytes = budget;
  limits.degrade = static_cast<RunLimits::Degrade>(req.degrade);
  limits.cancel_after_polls = req.cancel_after_polls;
  return limits;
}

/// Δ of a wire job — the JobRequest carries no delta_scale/theoretical
/// knobs, so the daemon always uses the default practical constant. This
/// is also the sparsifier cache-key Δ, so key and build always agree.
VertexId delta_for(const JobRequest& req) {
  return SparsifierParams::practical(req.beta, req.eps, 2.0).delta;
}

SparsifierKey key_of(const JobRequest& req, VertexId delta) {
  SparsifierKey key;
  key.source = req.source;
  key.delta = delta;
  key.seed = req.seed;
  return key;
}

void append_json(std::string& out, const char* key, std::uint64_t value,
                 bool first = false) {
  if (!first) out += ",";
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_bytes),
      telemetry_plane_(opts_.flight_capacity, opts_.telemetry) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    for (const int fd : listen_fds_) ::close(fd);
    listen_fds_.clear();
    return false;
  };

  if (!opts_.socket_path.empty()) {
    sockaddr_un addr{};
    if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long";
      return false;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return fail("socket(AF_UNIX)");
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
                opts_.socket_path.size() + 1);
    ::unlink(opts_.socket_path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return fail("bind(" + opts_.socket_path + ")");
    }
    if (::listen(fd, 64) != 0) {
      ::close(fd);
      return fail("listen(" + opts_.socket_path + ")");
    }
    listen_fds_.push_back(fd);
  }

  if (opts_.tcp_port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return fail("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return fail("bind(127.0.0.1:" + std::to_string(opts_.tcp_port) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      return fail("getsockname");
    }
    if (::listen(fd, 64) != 0) {
      ::close(fd);
      return fail("listen(tcp)");
    }
    bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    listen_fds_.push_back(fd);
  }

  accept_threads_.reserve(listen_fds_.size());
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
  return true;
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return shutting_down(); });
}

void Server::begin_drain() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto& [serial, ctx] : inflight_) ctx->cancel();
  }
}

void Server::notify_stop() {
  {
    // Pairs with the cv wait's predicate re-check so the wakeup is not
    // lost between its predicate evaluation and its sleep.
    std::lock_guard<std::mutex> lock(stop_mu_);
  }
  stop_cv_.notify_all();
}

void Server::stop() {
  begin_drain();
  notify_stop();
  // One thread runs the teardown; a concurrent stop() (say the
  // destructor racing an explicit stop on another thread) blocks here
  // until the joins finish rather than returning into ~Server while
  // members are still in use.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (stopped_) return;
  for (const int fd : listen_fds_) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  accept_threads_.clear();
  if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());

  std::vector<SessionSlot> slots;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    slots.swap(sessions_);
  }
  for (SessionSlot& s : slots) {
    // Unblock a session parked in recv(); its fd stays open (and its
    // number un-reusable) until after the join, so this never touches a
    // recycled descriptor.
    if (!s.done->load(std::memory_order_acquire)) {
      ::shutdown(s.fd, SHUT_RDWR);
    }
    if (s.thread.joinable()) s.thread.join();
    ::close(s.fd);
  }
  stopped_ = true;
}

int Server::connect_in_process() {
  if (shutting_down()) return -1;
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return -1;
  if (!spawn_session(sv[0])) {  // spawn closed sv[0] when refusing
    ::close(sv[1]);
    return -1;
  }
  return sv[1];
}

bool Server::spawn_session(int fd) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (shutting_down()) {
    ::close(fd);
    return false;
  }
  reap_finished_locked();
  telemetry_plane_.count(ServeCounter::kConnections);
  SessionSlot slot;
  slot.fd = fd;
  slot.done = std::make_shared<std::atomic<bool>>(false);
  auto done = slot.done;
  slot.thread = std::thread([this, fd, done] {
    session(fd);
    done->store(true, std::memory_order_release);
  });
  sessions_.push_back(std::move(slot));
  return true;
}

void Server::reap_finished_locked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      ::close(it->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    spawn_session(fd);  // closes fd itself when draining
  }
}

void Server::session(int fd) {
  // The session transport never owns the descriptor: stop()'s teardown
  // closes it after the join, and ownership there keeps the fd number
  // un-reusable while a parked recv may still reference it.
  std::unique_ptr<Transport> transport =
      std::make_unique<FdTransport>(fd, 0.0, /*owns_fd=*/false);
  if (opts_.transport_wrapper) {
    transport = opts_.transport_wrapper(std::move(transport));
  }
  Transport& t = *transport;
  std::vector<std::uint8_t> buf(1u << 16);
  FrameDecoder decoder;
  bool alive = true;
  // Stamped when a recv() batch lands: a frame's queue wait is the time
  // its bytes sat on this session before dispatch, so pipelined frames
  // accumulate the service time of everything ahead of them.
  auto batch_arrived = std::chrono::steady_clock::now();
  while (alive) {
    Frame frame;
    FrameDecoder::Status status = FrameDecoder::Status::kNeedMore;
    while (alive &&
           (status = decoder.next(&frame)) == FrameDecoder::Status::kFrame) {
      alive = handle_frame(t, frame, ms_since(batch_arrived));
    }
    if (!alive) break;
    if (status == FrameDecoder::Status::kError) {
      // The framing itself is broken: report once (request id 0 — the
      // id can no longer be trusted) and drop the connection.
      send_error(t, 0, ErrorCode::kBadFrame, decoder.error());
      break;
    }
    // The idle deadline IS the reaper: a peer that goes quiet for the
    // window loses its session thread instead of pinning it.
    t.set_timeout_ms(opts_.session_idle_timeout_ms);
    const IoResult r = t.recv(buf.data(), buf.size());
    if (!r.ok()) {
      if (r.status == IoStatus::kTimeout) {
        telemetry_plane_.count(ServeCounter::kSessionsReaped);
      }
      break;  // peer closed / stalled out (or stop() shut us down)
    }
    batch_arrived = std::chrono::steady_clock::now();
    decoder.feed(buf.data(), r.bytes);
  }
  // EOF to the peer; the fd itself is closed at reap/stop time.
  ::shutdown(fd, SHUT_RDWR);
}

bool Server::send_frame(Transport& t, const Frame& f) {
  // Per-send write deadline: a peer that stops draining its socket
  // mid-reply is reaped, not waited on forever.
  t.set_timeout_ms(opts_.session_write_timeout_ms);
  const std::vector<std::uint8_t> wire = encode_frame(f);
  const IoStatus st = t.send_all(wire.data(), wire.size());
  if (st == IoStatus::kTimeout) {
    telemetry_plane_.count(ServeCounter::kSessionsReaped);
  }
  return st == IoStatus::kOk;
}

bool Server::send_error(Transport& t, std::uint64_t id, ErrorCode code,
                        const std::string& message, double retry_after_ms) {
  telemetry_plane_.count(ServeCounter::kErrors);
  telemetry_plane_.count_refusal(code);
  ErrorReply err;
  err.code = code;
  err.message = message;
  err.retry_after_ms = retry_after_ms;
  return send_frame(t, encode_error(err, id));
}

bool Server::handle_frame(Transport& t, const Frame& f, double queue_ms) {
  telemetry_plane_.count(ServeCounter::kRequests);
  const auto dispatched = std::chrono::steady_clock::now();
  bool ok;
  switch (static_cast<FrameType>(f.type)) {
    case FrameType::kLoad:
      ok = handle_load(t, f);
      break;
    case FrameType::kSparsify:
    case FrameType::kMatch:
    case FrameType::kPipeline:
      ok = handle_job(t, f, queue_ms);
      break;
    case FrameType::kStats:
      ok = handle_stats(t, f);
      break;
    case FrameType::kEvict:
      ok = handle_evict(t, f);
      break;
    case FrameType::kCancel:
      ok = handle_cancel(t, f);
      break;
    case FrameType::kShutdown:
      ok = handle_shutdown(t, f);
      break;
    default:
      ok = send_error(t, f.request_id, ErrorCode::kBadFrame,
                      "unknown frame type " + std::to_string(f.type));
      break;
  }
  telemetry_plane_.observe_frame(static_cast<FrameType>(f.type), queue_ms,
                                 ms_since(dispatched));
  return ok;
}

bool Server::handle_load(Transport& t, const Frame& f) {
  auto req = decode_load({f.payload.data(), f.payload.size()});
  if (!req) {
    return send_error(t, f.request_id, ErrorCode::kBadFrame,
                      "malformed LOAD payload");
  }
  if (shutting_down()) {
    return send_error(t, f.request_id, ErrorCode::kShuttingDown,
                      "server is draining");
  }
  if (req->source.empty()) {
    return send_error(t, f.request_id, ErrorCode::kBadFrame,
                      "empty source name");
  }
  if (req->n > opts_.max_vertices || req->edges.size() > opts_.max_edges) {
    return send_error(t, f.request_id, ErrorCode::kTooLarge,
                      "graph above the configured LOAD caps");
  }
  // Messy client lists are normalized (self-loops and duplicates
  // dropped, canonical order) rather than MS_CHECK-aborting the daemon;
  // out-of-range endpoints stay a hard reject.
  normalize_edge_list(req->edges);
  for (const Edge& e : req->edges) {
    if (e.u >= req->n || e.v >= req->n) {
      return send_error(t, f.request_id, ErrorCode::kBadFrame,
                        "edge endpoint out of range");
    }
  }
  Graph g = Graph::from_edges(req->n, req->edges);
  LoadReply rep;
  rep.n = g.num_vertices();
  rep.m = g.num_edges();
  bool replaced = false;
  cache_.put_graph(req->source, std::move(g), &rep.bytes_charged, &replaced);
  rep.replaced = replaced ? 1 : 0;
  return send_frame(t, encode_reply(FrameType::kLoad, rep, f.request_id));
}

bool Server::handle_job(Transport& t, const Frame& f, double queue_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  FlightRecord rec;
  rec.request_id = f.request_id;
  rec.frame_type = f.type;
  const bool ok = handle_job_impl(t, f, &rec);
  rec.queue_ms = queue_ms;
  rec.service_ms = ms_since(t0);
  telemetry_plane_.record_flight(rec);
  maybe_dump_flight(rec);
  return ok;
}

std::shared_ptr<Server::TokenEntry> Server::claim_token(std::uint64_t token,
                                                        bool* owner) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  auto& slot = dedup_[token];
  if (slot == nullptr) {
    slot = std::make_shared<TokenEntry>();
    *owner = true;
  } else {
    *owner = false;
  }
  return slot;
}

void Server::complete_token(std::uint64_t token,
                            const std::shared_ptr<TokenEntry>& entry,
                            const Frame& reply_frame) {
  std::vector<std::shared_ptr<TokenEntry>> evicted;
  {
    std::lock_guard<std::mutex> lock(dedup_mu_);
    entry->reply = reply_frame;
    entry->state = TokenEntry::State::kDone;
    dedup_lru_.push_back(token);
    while (dedup_lru_.size() > opts_.dedup_window) {
      const std::uint64_t old = dedup_lru_.front();
      dedup_lru_.pop_front();
      const auto it = dedup_.find(old);
      if (it != dedup_.end()) {
        evicted.push_back(std::move(it->second));  // frame freed outside
                                                   // the lock
        dedup_.erase(it);
      }
    }
  }
  entry->cv.notify_all();
}

void Server::abort_token(std::uint64_t token,
                         const std::shared_ptr<TokenEntry>& entry) {
  {
    std::lock_guard<std::mutex> lock(dedup_mu_);
    entry->state = TokenEntry::State::kAborted;
    // Gone from the map right away: the NEXT arrival of this token
    // starts a fresh attempt instead of replaying a refusal.
    const auto it = dedup_.find(token);
    if (it != dedup_.end() && it->second == entry) dedup_.erase(it);
  }
  entry->cv.notify_all();
}

bool Server::serve_token_entry(Transport& t, const Frame& f,
                               const std::shared_ptr<TokenEntry>& entry,
                               FlightRecord* rec) {
  std::unique_lock<std::mutex> lock(dedup_mu_);
  if (entry->state == TokenEntry::State::kRunning) {
    // The retry overtook its original (it landed on a fresh connection
    // while the first attempt is still executing): wait for that single
    // execution to finish rather than start a second one. The tick
    // keeps the wait honest about server drain.
    telemetry_plane_.count(ServeCounter::kDedupWaits);
    while (entry->state == TokenEntry::State::kRunning && !shutting_down()) {
      entry->cv.wait_for(lock, std::chrono::milliseconds(10));
    }
  }
  if (entry->state == TokenEntry::State::kDone) {
    Frame replay = entry->reply;
    lock.unlock();
    telemetry_plane_.count(ServeCounter::kDedupReplays);
    // The original reply, re-stamped with the retry's request id so the
    // client pairs it; everything else byte-identical.
    replay.request_id = f.request_id;
    if (replay.type == static_cast<std::uint8_t>(FrameType::kError)) {
      rec->error_code = static_cast<std::uint32_t>(ErrorCode::kTripped);
    }
    rec->cache_hit = 1;  // served without executing anything
    return send_frame(t, replay);
  }
  const bool draining =
      entry->state == TokenEntry::State::kRunning;  // left by drain check
  lock.unlock();
  if (draining) {
    rec->error_code = static_cast<std::uint32_t>(ErrorCode::kShuttingDown);
    return send_error(t, f.request_id, ErrorCode::kShuttingDown,
                      "server is draining");
  }
  // kAborted: the original attempt was refused before executing and the
  // token is already out of the window — tell this retry to try again,
  // the same way a shed request is told.
  rec->error_code = static_cast<std::uint32_t>(ErrorCode::kShed);
  return send_error(t, f.request_id, ErrorCode::kShed,
                    "original attempt was refused; retry",
                    opts_.shed_retry_after_ms);
}

bool Server::handle_job_impl(Transport& t, const Frame& f, FlightRecord* rec) {
  const auto req = decode_job({f.payload.data(), f.payload.size()});
  if (!req) {
    rec->error_code = static_cast<std::uint32_t>(ErrorCode::kBadFrame);
    return send_error(t, f.request_id, ErrorCode::kBadFrame,
                      "malformed job payload");
  }
  rec->seed = req->seed;
  rec->lanes = req->threads;

  // Idempotency-token claim comes before everything else that can vary
  // between attempts (drain state, cache contents, the inflight cap):
  // a retried token must rendezvous with its original no matter how the
  // server has moved on since the first attempt.
  std::shared_ptr<TokenEntry> entry;
  if (req->client_token != 0 && opts_.dedup_window > 0) {
    bool owner = false;
    entry = claim_token(req->client_token, &owner);
    if (!owner) return serve_token_entry(t, f, entry, rec);
  }
  // Every refusal is a flight record too — the ring answers "why did
  // that request get nothing back" as well as "how slow was it". A
  // refusal before execution also aborts the token entry: retries
  // re-attempt instead of replaying a refusal that may not recur.
  const auto refuse = [&](ErrorCode code, const std::string& message,
                          double retry_after_ms = 0.0) {
    if (entry != nullptr) abort_token(req->client_token, entry);
    rec->error_code = static_cast<std::uint32_t>(code);
    return send_error(t, f.request_id, code, message, retry_after_ms);
  };
  if (shutting_down()) {
    return refuse(ErrorCode::kShuttingDown, "server is draining");
  }
  if (req->beta < 1) {
    return refuse(ErrorCode::kBadConfig, "need beta >= 1");
  }
  if (!(req->eps > 0.0 && req->eps < 1.0)) {
    return refuse(ErrorCode::kBadConfig, "need 0 < eps < 1");
  }
  if (req->degrade > 2) {
    return refuse(ErrorCode::kBadConfig, "unknown degrade mode");
  }
  // The wire keeps the matcher byte so rev-1/rev-2 frames stay valid.
  if (req->matcher != 0) {
    return refuse(ErrorCode::kBadConfig, req->matcher == 1
                                             ? "frontier backend removed"
                                             : "unknown matcher backend");
  }
  // The lane count sizes per-lane working arrays in the parallel
  // sparsifier; an unchecked u64 from the wire would let one frame
  // allocate the daemon to death before any memory budget is polled.
  if (req->threads > opts_.max_job_threads) {
    return refuse(ErrorCode::kBadConfig,
                  "threads above the server cap of " +
                      std::to_string(opts_.max_job_threads));
  }
  // The Δ formula MS_CHECKs its β/ε domain, so the sparsifier key is only
  // computable for a validated config; refusals above record Δ = 0.
  rec->delta = delta_for(*req);
  const auto graph = cache_.get_graph(req->source);
  if (graph == nullptr) {
    return refuse(ErrorCode::kUnknownGraph,
                  "no graph loaded as '" + req->source + "'");
  }

  // Admission: the inflight cap sheds immediately and cheaply...
  if (opts_.max_inflight > 0) {
    std::uint32_t cur = inflight_count_.load(std::memory_order_relaxed);
    bool admitted = false;
    while (cur < opts_.max_inflight) {
      if (inflight_count_.compare_exchange_weak(cur, cur + 1,
                                                std::memory_order_relaxed)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      telemetry_plane_.count(ServeCounter::kShed);
      return refuse(ErrorCode::kShed, "inflight cap reached",
                    opts_.shed_retry_after_ms);
    }
  } else {
    inflight_count_.fetch_add(1, std::memory_order_relaxed);
  }
  // ...while budget over-commitment sheds through the degradation
  // ladder: the clamped run trips kBudget and degrades instead of the
  // server overcommitting RAM.
  const std::uint64_t granted = grant_budget(req->mem_budget_bytes);

  const std::uint64_t serial =
      next_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec->serial = serial;
  telemetry_plane_.count(ServeCounter::kJobsExecuted);
  guard::RunContext ctx("serve.req-" + std::to_string(serial));
  // The job's metrics fold into telemetry_plane_.registry() below, not
  // into the process-global registry, which nothing in the daemon reads.
  ctx.set_publish_on_destroy(false);
  if (!opts_.trace_prefix.empty()) ctx.tracer().set_enabled(true);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_[serial] = &ctx;
    // begin_drain()'s cancel sweep may have run between the
    // shutting_down() check above and this insert; re-check under the
    // sweep's own lock so a late registrant is cancelled, not missed —
    // the SHUTDOWN ack's drain-before-ack contract depends on it.
    if (shutting_down()) ctx.cancel();
  }

  // From here on the job EXECUTES, and its outcome — success or a
  // served error like kTripped — is the token's outcome: the reply
  // frame is published to the dedup window BEFORE the send, so a
  // connection torn mid-reply replays the exact same bytes on retry
  // instead of executing twice.
  Frame out;
  {
    const guard::ScopedContext scope(ctx);
    const auto type = static_cast<FrameType>(f.type);
    if (type == FrameType::kSparsify) {
      SparsifyReply rep;
      ErrorReply err;
      if (run_sparsify(*req, graph, granted, &rep, &err)) {
        rec->cache_hit = rep.cache_hit;
        out = encode_reply(type, rep, f.request_id);
      } else {
        rec->error_code = static_cast<std::uint32_t>(err.code);
        telemetry_plane_.count(ServeCounter::kErrors);
        telemetry_plane_.count_refusal(err.code);
        out = encode_error(err, f.request_id);
      }
    } else {
      const MatchReply rep = run_match(*req, graph, serial, granted,
                                       type == FrameType::kMatch);
      rec->status = rep.status;
      rec->stop_reason = rep.stop_reason;
      rec->cache_hit = rep.cache_hit;
      rec->mem_peak_bytes = rep.mem_peak_bytes;
      telemetry_plane_.count_outcome(static_cast<RunStatus>(rep.status));
      if (type == FrameType::kMatch) {
        telemetry_plane_.count_cache(rep.cache_hit != 0);
      }
      out = encode_reply(type, rep, f.request_id);
    }
  }
  if (entry != nullptr) complete_token(req->client_token, entry, out);
  const bool ok = send_frame(t, out);

  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(serial);
  }
  return_budget(granted);
  inflight_count_.fetch_sub(1, std::memory_order_relaxed);
  // The serving plane keeps the daemon's one aggregate of every
  // request's library instruments (ladder rungs, guard polls, sparsify
  // marks).
  if (telemetry_plane_.enabled()) {
    ctx.metrics().merge_into(telemetry_plane_.registry());
  }
  export_request_artifacts(ctx, serial);
  return ok;
}

MatchReply Server::run_match(const JobRequest& req,
                             const std::shared_ptr<const Graph>& graph,
                             std::uint64_t serial, std::uint64_t budget,
                             bool use_cache) {
  MatchReply rep;
  rep.server_serial = serial;
  const ApproxMatchingConfig cfg = config_for(req);
  RunLimits limits = limits_for(req, budget);
  const VertexId delta = delta_for(req);
  rep.delta = delta;

  // In the identity regime G_Δ is the cached graph itself, so MATCH is a
  // hit on the graph's own entry: no sparsifier lookup, build or insert,
  // and the library call is exactly the direct one.
  const bool identity = use_cache && sparsifier_is_graph(*graph, cfg);
  RunOutcome outcome;
  std::shared_ptr<const Graph> sp;
  if (use_cache && !identity) {
    sp = cache_.get_sparsifier(key_of(req, delta));
  }

  if (identity) {
    rep.cache_hit = 1;
    outcome = approx_maximum_matching_guarded(*graph, cfg, limits);
  } else if (sp != nullptr) {
    rep.cache_hit = 1;
    outcome = approx_maximum_matching_guarded(*graph, cfg, limits, sp.get());
  } else if (!use_cache) {
    // PIPELINE: the deliberately cold end-to-end path (the bench's
    // baseline); the ladder builds its own sparsifier, cache untouched.
    outcome = approx_maximum_matching_guarded(*graph, cfg, limits);
  } else {
    // MATCH miss: build under this request's QoS envelope, insert into
    // the cache only on success, then match on the shared handle. The
    // request's deadline and poll budget span both stages — what the
    // build consumed comes off the matching stage's allowance — so the
    // envelope means the same thing hit or miss.
    WallTimer build_timer;
    guard::RunGuard::Limits bl;
    bl.deadline_ms = limits.deadline_ms;
    bl.mem_budget_bytes = limits.mem_budget_bytes;
    bl.cancel_after_polls = limits.cancel_after_polls;
    guard::RunGuard build_guard(bl);
    build_guard.set_parent(guard::active());
    SparsifierStats stats;
    Graph built;
    bool build_ok = false;
    std::string build_detail;
    try {
      const guard::ScopedGuard installed(build_guard);
      built = build_matching_sparsifier(*graph, cfg, &stats);
      build_ok = true;
    } catch (const guard::Interrupted& e) {
      build_detail = e.what();
    }
    const std::uint64_t build_polls = build_guard.polls();
    const std::uint64_t build_peak = build_guard.memory().peak();
    if (limits.deadline_ms > 0.0) {
      limits.deadline_ms =
          std::max(1.0, req.deadline_ms - build_timer.seconds() * 1e3);
    }
    if (limits.cancel_after_polls > 0) {
      limits.cancel_after_polls = limits.cancel_after_polls > build_polls
                                      ? limits.cancel_after_polls - build_polls
                                      : 1;
    }

    if (build_ok) {
      std::uint64_t bytes = 0;
      sp = cache_.put_sparsifier(key_of(req, delta), std::move(built), &bytes);
      outcome = approx_maximum_matching_guarded(*graph, cfg, limits, sp.get());
      if (outcome.status == RunStatus::kOk) {
        // Rung 0 ran on the graph we just built: report its build-stage
        // telemetry (the guarded call saw a prebuilt and reported 0s).
        outcome.result.probes = stats.probes;
        outcome.result.sparsify_seconds = stats.total_seconds;
      }
    } else {
      telemetry_plane_.count(ServeCounter::kTrippedBuilds);
      const guard::StopReason why = build_guard.stop_reason();
      if (why == guard::StopReason::kCancelled ||
          limits.degrade == RunLimits::Degrade::kOff) {
        outcome.status = why == guard::StopReason::kCancelled
                             ? RunStatus::kCancelled
                             : RunStatus::kFailed;
        outcome.stop_reason = why;
        outcome.partial = true;
        outcome.result.matching = Matching(graph->num_vertices());
        outcome.detail = build_detail;
      } else {
        // The cache stays untouched (never poisoned by a tripped
        // build); the remaining window walks the ladder cold.
        limits.cancel_after_polls = 0;
        outcome = approx_maximum_matching_guarded(*graph, cfg, limits);
        outcome.detail = build_detail + "; " + outcome.detail;
        if (outcome.stop_reason == guard::StopReason::kNone) {
          outcome.stop_reason = why;
        }
      }
    }
    outcome.polls += build_polls;
    outcome.mem_peak_bytes = std::max(outcome.mem_peak_bytes, build_peak);
  }

  rep.status = static_cast<std::uint8_t>(outcome.status);
  rep.stop_reason = static_cast<std::uint8_t>(outcome.stop_reason);
  rep.partial = outcome.partial ? 1 : 0;
  rep.eps_effective = outcome.eps_effective;
  rep.guarantee = outcome.guarantee;
  rep.size_floor = outcome.size_floor;
  if (outcome.result.delta != 0) rep.delta = outcome.result.delta;
  rep.sparsifier_edges = outcome.result.sparsifier_edges;
  rep.polls = outcome.polls;
  rep.mem_peak_bytes = outcome.mem_peak_bytes;
  rep.matched = outcome.result.matching.edges();
  rep.detail = outcome.detail;
  return rep;
}

bool Server::run_sparsify(const JobRequest& req,
                          const std::shared_ptr<const Graph>& graph,
                          std::uint64_t budget, SparsifyReply* reply,
                          ErrorReply* error) {
  const ApproxMatchingConfig cfg = config_for(req);
  const VertexId delta = delta_for(req);
  reply->delta = delta;
  if (sparsifier_is_graph(*graph, cfg)) {
    // G_Δ is the cached graph itself: nothing to build, charge or insert.
    reply->cache_hit = 1;
    reply->edges = graph->num_edges();
    return true;
  }
  const SparsifierKey key = key_of(req, delta);
  if (const auto sp = cache_.get_sparsifier(key)) {
    reply->cache_hit = 1;
    reply->edges = sp->num_edges();
    return true;
  }
  WallTimer timer;
  guard::RunGuard::Limits bl;
  bl.deadline_ms = req.deadline_ms;
  bl.mem_budget_bytes = budget;
  bl.cancel_after_polls = req.cancel_after_polls;
  guard::RunGuard build_guard(bl);
  build_guard.set_parent(guard::active());
  Graph built;
  try {
    const guard::ScopedGuard installed(build_guard);
    built = build_matching_sparsifier(*graph, cfg, nullptr);
  } catch (const guard::Interrupted& e) {
    // A bare build has no degradation ladder to fall back on: report
    // kTripped, cache untouched.
    telemetry_plane_.count(ServeCounter::kTrippedBuilds);
    error->code = ErrorCode::kTripped;
    error->message = e.what();
    return false;
  }
  reply->edges = built.num_edges();
  reply->build_ms = timer.seconds() * 1e3;
  cache_.put_sparsifier(key, std::move(built), &reply->bytes_charged);
  return true;
}

bool Server::handle_stats(Transport& t, const Frame& f) {
  const auto format =
      decode_stats_request({f.payload.data(), f.payload.size()});
  if (!format) {
    return send_error(t, f.request_id, ErrorCode::kBadFrame,
                      "malformed STATS payload (unknown format byte?)");
  }
  const GraphCache::Stats cs = cache_.stats();
  StatsReply rep;
  if (*format == kStatsFormatPrometheus) {
    rep.json = telemetry_plane_.prometheus(inflight(), cs, shutting_down());
    return send_frame(t, encode_reply(FrameType::kStats, rep, f.request_id));
  }
  if (*format == kStatsFormatFlight) {
    rep.json = flight_ndjson();
    return send_frame(t, encode_reply(FrameType::kStats, rep, f.request_id));
  }
  std::string& j = rep.json;
  j = "{";
  // "schema" leads the document so consumers can reject before parsing
  // anything else (DESIGN.md §16); bumped only on breaking changes.
  append_json(j, "schema", kStatsSchemaVersion, /*first=*/true);
  for (std::size_t i = 0; i < kServeCounters; ++i) {
    const auto c = static_cast<ServeCounter>(i);
    append_json(j, counter_key(c), telemetry_plane_.value(c));
  }
  append_json(j, "inflight", inflight());
  append_json(j, "shutting_down", shutting_down() ? 1 : 0);
  j += ",\"cache\":{";
  append_json(j, "hits", cs.hits, /*first=*/true);
  append_json(j, "misses", cs.misses);
  append_json(j, "evictions", cs.evictions);
  append_json(j, "refused", cs.refused);
  append_json(j, "bytes_used", cs.bytes_used);
  append_json(j, "bytes_cap", cs.bytes_cap);
  append_json(j, "graphs", cs.graphs);
  append_json(j, "sparsifiers", cs.sparsifiers);
  j += "}}";
  return send_frame(t, encode_reply(FrameType::kStats, rep, f.request_id));
}

bool Server::handle_evict(Transport& t, const Frame& f) {
  const auto req = decode_evict({f.payload.data(), f.payload.size()});
  if (!req) {
    return send_error(t, f.request_id, ErrorCode::kBadFrame,
                      "malformed EVICT payload");
  }
  EvictReply rep;
  cache_.evict(req->source, &rep.entries, &rep.bytes_freed);
  return send_frame(t, encode_reply(FrameType::kEvict, rep, f.request_id));
}

bool Server::handle_cancel(Transport& t, const Frame& f) {
  const auto req = decode_cancel({f.payload.data(), f.payload.size()});
  if (!req) {
    return send_error(t, f.request_id, ErrorCode::kBadFrame,
                      "malformed CANCEL payload");
  }
  CancelReply rep;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    const auto it = inflight_.find(req->server_serial);
    if (it != inflight_.end()) {
      it->second->cancel();
      rep.found = 1;
      telemetry_plane_.count(ServeCounter::kCancelsDelivered);
    }
  }
  return send_frame(t, encode_reply(FrameType::kCancel, rep, f.request_id));
}

bool Server::handle_shutdown(Transport& t, const Frame& f) {
  // Drain BEFORE the ack goes out: a client that has seen the ack must
  // never observe the server still admitting work. But wake wait() only
  // AFTER the ack is queued to the kernel — waking first lets the
  // owner's stop() sever this session between drain and send, and the
  // client that asked for the shutdown never sees its ack.
  begin_drain();
  Frame ack;
  ack.type = reply(FrameType::kShutdown);
  ack.request_id = f.request_id;
  const bool ok = send_frame(t, ack);
  notify_stop();
  return ok;
}

std::uint64_t Server::grant_budget(std::uint64_t requested) {
  if (requested == 0) return 0;  // unlimited passes through unclamped
  std::lock_guard<std::mutex> lock(inflight_mu_);
  const std::uint64_t cap = opts_.cache_bytes;
  const std::uint64_t avail = cap > promised_budget_ ? cap - promised_budget_
                                                     : 0;
  const std::uint64_t granted =
      std::min(requested, std::max<std::uint64_t>(avail, 1));
  if (granted < requested) {
    telemetry_plane_.count(ServeCounter::kBudgetClamped);
  }
  promised_budget_ += granted;
  return granted;
}

void Server::return_budget(std::uint64_t granted) {
  if (granted == 0) return;
  std::lock_guard<std::mutex> lock(inflight_mu_);
  promised_budget_ -= granted;
}

void Server::maybe_dump_flight(const FlightRecord& rec) {
  if (opts_.flight_path.empty()) return;
  const bool tripped =
      rec.stop_reason != 0 ||
      rec.error_code == static_cast<std::uint32_t>(ErrorCode::kTripped);
  if (!tripped) return;
  // Serialized so two concurrent trips write two whole dumps in turn,
  // never an interleaving; last writer wins, which is exactly the
  // "state of the ring at the latest incident" the file promises.
  std::lock_guard<std::mutex> lock(flight_dump_mu_);
  std::ofstream out(opts_.flight_path, std::ios::trunc);
  if (out) out << flight_ndjson();
}

void Server::export_request_artifacts(guard::RunContext& ctx,
                                      std::uint64_t serial) {
  if (!opts_.metrics_prefix.empty()) {
    std::ofstream out(opts_.metrics_prefix + ".req" + std::to_string(serial) +
                      ".json");
    if (out) out << ctx.metrics_snapshot().to_json() << "\n";
  }
  if (!opts_.trace_prefix.empty()) {
    ctx.tracer().export_chrome(opts_.trace_prefix + ".req" +
                               std::to_string(serial) + ".json");
  }
}

}  // namespace matchsparse::serve
