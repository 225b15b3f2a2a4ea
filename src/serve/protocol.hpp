// matchsparse_serve wire protocol (DESIGN.md §15).
//
// Every message is one util/frame.hpp frame. Request types occupy
// 0x01..0x7f; the matching reply sets the high bit (reply(t) below), and
// kError (0xff) answers any request that could not be served. The
// request id is opaque to the server and echoed verbatim, so a client
// may pipeline requests and pair replies by id (the server processes
// one connection's frames strictly in order).
//
// Payload schemas are fixed-layout little-endian via ByteWriter /
// ByteReader; every decoder enforces the whole-payload rule — trailing
// bytes are as malformed as missing ones and fail the decode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/edge.hpp"
#include "graph/graph.hpp"
#include "util/frame.hpp"

namespace matchsparse::serve {

enum class FrameType : std::uint8_t {
  kLoad = 0x01,      // install a graph under a source name
  kSparsify = 0x02,  // ensure G_Δ for (source, Δ, seed) is cached
  kMatch = 0x03,     // guarded match, serving from the sparsifier cache
  kPipeline = 0x04,  // guarded end-to-end run, cache bypassed (cold path)
  kStats = 0x05,     // server + cache telemetry snapshot (JSON payload)
  kEvict = 0x06,     // drop a source (and its sparsifiers), or everything
  kShutdown = 0x07,  // ack, then stop accepting and drain
  kCancel = 0x08,    // cancel an in-flight request by server serial
  kError = 0xff,     // reply-only: request could not be served
};

/// Reply tag for a request tag.
constexpr std::uint8_t reply(FrameType t) {
  return static_cast<std::uint8_t>(t) | 0x80;
}

/// Lowercase request-tag name ("load", "match", ...); reply tags and
/// unknown values render as "unknown". Used by telemetry labels and the
/// flight recorder, so the spellings are part of the exposition schema.
const char* to_string(FrameType t);

/// Version of the STATS format-0 JSON document, emitted as the object's
/// first member ("schema"). Bumped whenever a field is removed or
/// changes meaning; adding fields is backward compatible and does NOT
/// bump it. Clients reject documents whose schema they do not know
/// (serve::Client::stats).
inline constexpr std::uint64_t kStatsSchemaVersion = 1;

// STATS request format byte (the optional single-byte payload of a
// kStats request; an empty payload means kStatsFormatJson, which keeps
// pre-format clients byte-compatible).
inline constexpr std::uint8_t kStatsFormatJson = 0;        // flat JSON object
inline constexpr std::uint8_t kStatsFormatPrometheus = 1;  // text exposition
                                                           // v0.0.4
inline constexpr std::uint8_t kStatsFormatFlight = 2;      // flight-recorder
                                                           // ndjson dump

/// Cap on the free-text strings crossing the wire (MatchReply::detail,
/// ErrorReply::message): encoders truncate longer strings so a reply
/// can never outgrow the frame ceiling, and the bound matches
/// ByteReader's default str() limit so a maximal string still decodes
/// on the other side.
inline constexpr std::size_t kMaxWireDetailBytes = 1u << 16;

/// Edge-count ceiling for any frame that carries an edge list. A LOAD
/// at this ceiling admits a perfect matching of the same size, so the
/// cap is derived from the LARGEST frame an edge list appears in — the
/// MATCH reply: 64 fixed bytes, the 4-byte detail length prefix, a
/// maximal detail string, and 8 bytes per edge must all fit
/// kMaxFramePayloadBytes. (The LOAD request's own overhead — a
/// length-prefixed source plus 12 header bytes — is strictly smaller.)
inline constexpr std::uint64_t kMaxWireEdges =
    (kMaxFramePayloadBytes - (64 + 4 + kMaxWireDetailBytes)) /
    (2 * sizeof(VertexId));
static_assert(64 + 4 + kMaxWireDetailBytes +
                      kMaxWireEdges * 2 * sizeof(VertexId) <=
                  kMaxFramePayloadBytes,
              "a maximal MATCH reply must fit one frame");

/// Why a request failed (ErrorReply::code).
enum class ErrorCode : std::uint32_t {
  kBadFrame = 1,      // payload failed to decode (or unknown frame type)
  kUnknownGraph = 2,  // MATCH/SPARSIFY named a source that is not loaded
  kBadConfig = 3,     // beta/eps/threads outside the library's contract
  kShed = 4,          // admission refused: inflight cap reached
  kShuttingDown = 5,  // server is draining; no new work accepted
  kTripped = 6,       // SPARSIFY build hit its deadline/budget (no fallback
                      // exists for a bare build; cache left untouched)
  kTooLarge = 7,      // LOAD graph above the configured vertex/edge caps
  kInternal = 8,
  kUnsupportedSchema = 9,  // client-side: STATS document's schema number
                           // is newer than this client understands
};

const char* to_string(ErrorCode code);

// ---------------------------------------------------------------------------
// Request payloads
// ---------------------------------------------------------------------------

/// LOAD: the graph travels inline (n, then m canonical edges), so the
/// daemon never touches the filesystem on behalf of a client.
struct LoadRequest {
  std::string source;
  VertexId n = 0;
  EdgeList edges;
};

/// The shared job header for SPARSIFY / MATCH / PIPELINE: which cached
/// graph, the paper parameters, and this request's QoS envelope. A zero
/// deadline/budget means unlimited (same convention as RunLimits).
struct JobRequest {
  std::string source;
  VertexId beta = 2;
  double eps = 0.2;
  std::uint64_t seed = 0;
  /// Lanes that build G_Δ (ApproxMatchingConfig::threads): 1 runs on the
  /// session's thread, 0 = the shared pool's size. G_Δ is the same at
  /// every lane count.
  std::uint64_t threads = 1;
  double deadline_ms = 0.0;
  std::uint64_t mem_budget_bytes = 0;
  std::uint8_t degrade = 2;  // 0 off, 1 eps, 2 maximal (RunLimits order)
  std::uint8_t matcher = 0;  // 0 serial; 1 (the frontier backend) removed
  /// Test hook, forwarded to RunLimits::cancel_after_polls: trips a
  /// deterministic kCancelled on the N-th guard poll of the first
  /// attempt. 0 = off.
  std::uint64_t cancel_after_polls = 0;
  /// Idempotency token (protocol rev 2). 0 = none: the request is
  /// encoded in the rev-1 layout, byte-identical to pre-token clients,
  /// and the server executes it unconditionally. Nonzero: appended as a
  /// trailing u64; the server's dedup window replays the completed
  /// reply for a retried token instead of executing the job twice
  /// (DESIGN.md §17). RetryingClient draws a fresh token per logical
  /// request and reuses it across every retry of that request.
  std::uint64_t client_token = 0;
};

struct EvictRequest {
  std::string source;  // empty = evict everything
};

struct CancelRequest {
  std::uint64_t server_serial = 0;  // MatchReply::server_serial of the target
};

// ---------------------------------------------------------------------------
// Reply payloads
// ---------------------------------------------------------------------------

struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  /// Backoff hint in milliseconds, meaningful on retryable refusals
  /// (kShed): "try again no sooner than this". 0 = no hint. Encoded as
  /// a trailing f64 (protocol rev 2); decoders accept the rev-1 layout
  /// without it, so old servers' errors still parse.
  double retry_after_ms = 0.0;
};

struct LoadReply {
  VertexId n = 0;
  EdgeIndex m = 0;
  std::uint64_t bytes_charged = 0;
  std::uint8_t replaced = 0;  // 1 when an older graph of this name was evicted
};

/// When the graph is its own G_Δ (sparsifier_is_graph: max degree at
/// most 2Δ) SPARSIFY builds and inserts nothing: edges = m,
/// cache_hit = 1, build_ms = 0 and bytes_charged = 0.
struct SparsifyReply {
  VertexId delta = 0;
  EdgeIndex edges = 0;  // |E(G_Δ)|
  std::uint8_t cache_hit = 0;
  double build_ms = 0.0;
  /// 0 on a hit, in the identity regime, or when caching was refused.
  std::uint64_t bytes_charged = 0;
};

/// MATCH and PIPELINE share this shape (PIPELINE always reports
/// cache_hit = 0 — it is the deliberately cold path).
struct MatchReply {
  std::uint8_t status = 0;       // RunStatus numeric value
  std::uint8_t stop_reason = 0;  // guard::StopReason numeric value
  std::uint8_t partial = 0;
  /// MATCH: 1 when G_Δ came from the cache — a cached sparsifier, or the
  /// cached graph itself when it is its own G_Δ (sparsifier_is_graph).
  std::uint8_t cache_hit = 0;
  double eps_effective = 0.0;
  double guarantee = 0.0;
  VertexId size_floor = 0;
  VertexId delta = 0;
  EdgeIndex sparsifier_edges = 0;
  std::uint64_t polls = 0;
  std::uint64_t mem_peak_bytes = 0;
  /// Server-side serial of this request — the handle kCancel takes and
  /// the suffix of any per-request manifest/trace export (.req<serial>).
  std::uint64_t server_serial = 0;
  /// The matching, canonical (u < v) sorted pairs.
  EdgeList matched;
  std::string detail;
};

/// The STATS reply is one length-prefixed text body in whichever format
/// the request asked for: a flat JSON object (format 0; schema in
/// DESIGN.md §15/§16), a Prometheus text exposition (format 1), or a
/// flight-recorder ndjson dump (format 2).
struct StatsReply {
  std::string json;
};

struct EvictReply {
  std::uint32_t entries = 0;
  std::uint64_t bytes_freed = 0;
};

struct CancelReply {
  std::uint8_t found = 0;  // 1 when the serial named an in-flight request
};

// ---------------------------------------------------------------------------
// Codecs. encode_* produce a full Frame (payload + tags); decode_* parse
// a payload and return nullopt on any violation of the schema, including
// trailing bytes.
// ---------------------------------------------------------------------------

Frame encode(const LoadRequest& r, std::uint64_t request_id);
Frame encode(FrameType job_type, const JobRequest& r, std::uint64_t request_id);
Frame encode(const EvictRequest& r, std::uint64_t request_id);
Frame encode(const CancelRequest& r, std::uint64_t request_id);
/// STATS (format 0) / SHUTDOWN carry no payload.
Frame encode_empty(FrameType t, std::uint64_t request_id);
/// STATS with an explicit format byte. kStatsFormatJson is encoded as
/// an EMPTY payload — byte-identical to the pre-format wire frame — so
/// old servers keep answering new clients' default requests.
Frame encode_stats(std::uint8_t format, std::uint64_t request_id);

Frame encode_reply(FrameType req_type, const LoadReply& r, std::uint64_t id);
Frame encode_reply(FrameType req_type, const SparsifyReply& r,
                   std::uint64_t id);
Frame encode_reply(FrameType req_type, const MatchReply& r, std::uint64_t id);
Frame encode_reply(FrameType req_type, const StatsReply& r, std::uint64_t id);
Frame encode_reply(FrameType req_type, const EvictReply& r, std::uint64_t id);
Frame encode_reply(FrameType req_type, const CancelReply& r, std::uint64_t id);
Frame encode_error(const ErrorReply& r, std::uint64_t id);

std::optional<LoadRequest> decode_load(std::span<const std::uint8_t> payload);
std::optional<JobRequest> decode_job(std::span<const std::uint8_t> payload);
std::optional<EvictRequest> decode_evict(
    std::span<const std::uint8_t> payload);
std::optional<CancelRequest> decode_cancel(
    std::span<const std::uint8_t> payload);
/// STATS request: empty payload → kStatsFormatJson; one known format
/// byte → that format; anything else (unknown byte, trailing bytes) is
/// malformed.
std::optional<std::uint8_t> decode_stats_request(
    std::span<const std::uint8_t> payload);

std::optional<LoadReply> decode_load_reply(
    std::span<const std::uint8_t> payload);
std::optional<SparsifyReply> decode_sparsify_reply(
    std::span<const std::uint8_t> payload);
std::optional<MatchReply> decode_match_reply(
    std::span<const std::uint8_t> payload);
std::optional<StatsReply> decode_stats_reply(
    std::span<const std::uint8_t> payload);
std::optional<EvictReply> decode_evict_reply(
    std::span<const std::uint8_t> payload);
std::optional<CancelReply> decode_cancel_reply(
    std::span<const std::uint8_t> payload);
std::optional<ErrorReply> decode_error_reply(
    std::span<const std::uint8_t> payload);

}  // namespace matchsparse::serve
