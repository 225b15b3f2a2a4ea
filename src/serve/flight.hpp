// Flight recorder — the daemon's always-on post-mortem ring
// (DESIGN.md §16).
//
// A fixed-size ring of compact per-request records, written without a
// mutex at request completion and dumpable at any moment: on SIGUSR1 (the
// daemon tool), on every guard trip (ServerOptions::flight_path), and
// on demand over the wire (STATS format=2). The ring answers "what were
// the last N requests doing" after an incident without any per-request
// filesystem traffic while the server is healthy.
//
// Concurrency contract: record() takes a ticket (one fetch_add) and is
// safe from any number of session threads; dump() runs concurrently
// with writers and never blocks them. Each slot is a seqlock whose
// payload words are themselves atomics (no plain-memory races,
// TSan-clean): the writer claims the slot by a CAS of seq to
// 2·ticket+1, stores its words, and publishes 2·ticket+2, and a reader
// discards any slot whose seq is not the stable published value for
// the ticket it expects — so a dump taken mid-overwrite skips the
// contested slot instead of emitting a franken-record. The claim keeps
// two writers of one slot (tickets a full lap apart) from interleaving
// their stores: a lapped writer drops its stale record, and a writer
// that finds the previous lap still mid-record waits for its nine
// stores — the only wait in the recorder, and it needs capacity()
// completions to land while one writer is inside record(). All slot
// atomics are seq_cst; at request-completion granularity the fence cost
// is noise, and the total order is what makes the discard check sound.
//
// Memory contract: one slot is 10 machine words (seq + 9 payload
// words), so the default 256-entry ring is 20 KiB, allocated once at
// server construction and never resized or freed mid-flight.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace matchsparse::serve {

/// One completed request. For served jobs `status`/`stop_reason` carry
/// the RunOutcome; for refused requests `error_code` carries the
/// serve::ErrorCode and status/stop_reason stay 0. `delta`/`seed` are
/// the sparsifier key of job frames and `lanes` the lane count the job
/// asked for (0 otherwise).
struct FlightRecord {
  std::uint64_t serial = 0;      // server serial (jobs; 0 otherwise)
  std::uint64_t request_id = 0;  // client-chosen id, echoed in replies
  std::uint8_t frame_type = 0;   // serve::FrameType raw value
  std::uint8_t status = 0;       // core RunStatus raw value
  std::uint8_t stop_reason = 0;  // guard::StopReason raw value
  std::uint8_t cache_hit = 0;
  std::uint32_t error_code = 0;  // serve::ErrorCode when refused, else 0
  std::uint32_t delta = 0;
  std::uint64_t seed = 0;
  std::uint64_t lanes = 0;
  double queue_ms = 0.0;    // decoded-to-dispatched wait on the session
  double service_ms = 0.0;  // dispatch-to-reply-sent service time
  std::uint64_t mem_peak_bytes = 0;

  friend bool operator==(const FlightRecord&, const FlightRecord&) = default;
};

class FlightRecorder {
 public:
  /// `capacity` slots, clamped to >= 1. ~80 bytes per slot.
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  std::size_t capacity() const { return slots_.size(); }
  /// Total records ever written (monotone; ring keeps the last
  /// min(completed, capacity) of them).
  std::uint64_t completed() const {
    return next_.load(std::memory_order_acquire);
  }

  /// Safe from any number of threads; never waits on dump(). A record
  /// lapped by a newer one before it claimed its slot is dropped.
  void record(const FlightRecord& r);

  /// The last <= capacity() completed records, oldest first. Slots
  /// mid-overwrite at the instant of the dump are skipped, never torn.
  std::vector<FlightRecord> dump() const;

  /// dump() as newline-delimited JSON, one record per line (the format
  /// of the SIGUSR1 / guard-trip / STATS-format-2 exports).
  std::string dump_ndjson() const;

 private:
  static constexpr std::size_t kPayloadWords = 9;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 never-written; 2t+1 writing;
                                        // 2t+2 published for ticket t
    std::array<std::atomic<std::uint64_t>, kPayloadWords> words{};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
};

/// Renders one record as a single-line JSON object (no trailing
/// newline); shared by dump_ndjson() and the tests.
std::string flight_record_json(const FlightRecord& r);

}  // namespace matchsparse::serve
