#include "serve/flight.hpp"

#include <bit>
#include <cstdio>
#include <thread>

#include "core/api.hpp"
#include "guard/guard.hpp"
#include "serve/protocol.hpp"

namespace matchsparse::serve {

namespace {

/// FlightRecord <-> the 9 payload words of a slot. Field packing is an
/// in-process detail (the wire never sees it), so layout changes are
/// free as long as pack and unpack agree.
std::array<std::uint64_t, 9> pack(const FlightRecord& r) {
  std::array<std::uint64_t, 9> w{};
  w[0] = r.serial;
  w[1] = r.request_id;
  w[2] = static_cast<std::uint64_t>(r.frame_type) |
         static_cast<std::uint64_t>(r.status) << 8 |
         static_cast<std::uint64_t>(r.stop_reason) << 16 |
         static_cast<std::uint64_t>(r.cache_hit) << 24 |
         static_cast<std::uint64_t>(r.error_code) << 32;
  w[3] = r.delta;
  w[4] = r.seed;
  w[5] = r.lanes;
  w[6] = std::bit_cast<std::uint64_t>(r.queue_ms);
  w[7] = std::bit_cast<std::uint64_t>(r.service_ms);
  w[8] = r.mem_peak_bytes;
  return w;
}

FlightRecord unpack(const std::array<std::uint64_t, 9>& w) {
  FlightRecord r;
  r.serial = w[0];
  r.request_id = w[1];
  r.frame_type = static_cast<std::uint8_t>(w[2]);
  r.status = static_cast<std::uint8_t>(w[2] >> 8);
  r.stop_reason = static_cast<std::uint8_t>(w[2] >> 16);
  r.cache_hit = static_cast<std::uint8_t>(w[2] >> 24);
  r.error_code = static_cast<std::uint32_t>(w[2] >> 32);
  r.delta = static_cast<std::uint32_t>(w[3]);
  r.seed = w[4];
  r.lanes = w[5];
  r.queue_ms = std::bit_cast<double>(w[6]);
  r.service_ms = std::bit_cast<double>(w[7]);
  r.mem_peak_bytes = w[8];
  return r;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(capacity > 0 ? capacity : 1) {}

void FlightRecorder::record(const FlightRecord& r) {
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_acq_rel);
  Slot& slot = slots_[static_cast<std::size_t>(ticket % slots_.size())];
  // seq_cst throughout the slot: the single total order is what makes a
  // reader's stable-seq check imply it saw no words from a later write.
  //
  // Claim the slot before storing words. Tickets of one slot are a lap
  // apart, and two of their writers must never interleave stores: the
  // mix would be published under the later ticket's seq. A writer
  // lapped by a newer ticket drops its record (the ring has already
  // moved past it); a writer that finds the previous lap's writer
  // mid-record waits for its nine stores. The seq of a slot only grows,
  // so a reader that sees the same even value twice saw one writer's
  // words.
  const std::uint64_t claim = 2 * ticket + 1;
  std::uint64_t seen = slot.seq.load();
  for (;;) {
    if (seen >= claim) return;  // lapped: a newer record owns the slot
    if (seen % 2 == 1) {        // the previous lap is still writing
      std::this_thread::yield();
      seen = slot.seq.load();
      continue;
    }
    if (slot.seq.compare_exchange_weak(seen, claim)) break;
  }
  const auto words = pack(r);
  for (std::size_t i = 0; i < kPayloadWords; ++i) {
    slot.words[i].store(words[i]);
  }
  slot.seq.store(2 * ticket + 2);
}

std::vector<FlightRecord> FlightRecorder::dump() const {
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t n = slots_.size();
  const std::uint64_t begin = end > n ? end - n : 0;
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t ticket = begin; ticket < end; ++ticket) {
    const Slot& slot = slots_[static_cast<std::size_t>(ticket % n)];
    const std::uint64_t expect = 2 * ticket + 2;
    if (slot.seq.load() != expect) continue;  // in-flight or overwritten
    std::array<std::uint64_t, kPayloadWords> words;
    for (std::size_t i = 0; i < kPayloadWords; ++i) {
      words[i] = slot.words[i].load();
    }
    if (slot.seq.load() != expect) continue;  // overwritten mid-read
    out.push_back(unpack(words));
  }
  return out;
}

std::string flight_record_json(const FlightRecord& r) {
  char num[64];
  std::string out = "{\"serial\":" + std::to_string(r.serial);
  out += ",\"request_id\":" + std::to_string(r.request_id);
  out += ",\"frame\":\"";
  out += to_string(static_cast<FrameType>(r.frame_type));
  out += '"';
  if (r.error_code != 0) {
    out += ",\"error\":\"";
    out += to_string(static_cast<ErrorCode>(r.error_code));
    out += '"';
  } else {
    out += ",\"status\":\"";
    out += to_string(static_cast<RunStatus>(r.status));
    out += "\",\"stop\":\"";
    out += guard::to_string(static_cast<guard::StopReason>(r.stop_reason));
    out += '"';
  }
  out += ",\"cache_hit\":" + std::to_string(r.cache_hit);
  out += ",\"delta\":" + std::to_string(r.delta);
  out += ",\"seed\":" + std::to_string(r.seed);
  out += ",\"lanes\":" + std::to_string(r.lanes);
  std::snprintf(num, sizeof(num), "%.3f", r.queue_ms);
  out += ",\"queue_ms\":";
  out += num;
  std::snprintf(num, sizeof(num), "%.3f", r.service_ms);
  out += ",\"service_ms\":";
  out += num;
  out += ",\"mem_peak_bytes\":" + std::to_string(r.mem_peak_bytes);
  out += '}';
  return out;
}

std::string FlightRecorder::dump_ndjson() const {
  std::string out;
  for (const FlightRecord& r : dump()) {
    out += flight_record_json(r);
    out += '\n';
  }
  return out;
}

}  // namespace matchsparse::serve
