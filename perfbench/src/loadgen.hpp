// Request schedules for the served workloads.
//
// Open loop: request i comes due at i / rate seconds after the start,
// whatever the system is doing. Each connection thread serves one request
// at a time and takes the earliest request not yet taken, so when every
// connection is busy the due requests wait in the generator. Latency is
// timed from when a request came due, not from when it was sent, so the
// wait a stall imposes on later requests is counted (no coordinated
// omission); how late the generator sent is reported as lateness.
//
// Closed loop: each connection sends its next request as soon as the
// previous reply is in; latency is timed from the send.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

/// Times of one request, in seconds since the start of its loop.
struct Timing {
  double due = 0.0;   // when it came due (open loop) or was sent (closed)
  double sent = 0.0;  // when a connection took it
  double done = 0.0;  // when its reply was decoded; the op sets this
  double latency() const { return done - due; }
  double lateness() const { return sent - due; }
};

/// One request on connection `conn`. It sets t.done = now_s() as soon as
/// the reply is decoded; its checks come after, off the clock.
using Op = std::function<void(std::size_t conn, std::uint64_t index, Timing& t)>;

struct LoopRun {
  std::vector<Timing> timings;  // indexed by request index
  double elapsed = 0.0;         // start to last reply, seconds
};

/// Both run one thread per connection and rethrow, after joining them all,
/// the first exception an op threw.
LoopRun run_open_loop(double rate_per_s, double seconds, std::size_t conns,
                      const Op& op);
LoopRun run_closed_loop(double seconds, std::size_t conns, const Op& op);

/// A run is invalid when the generator's p99 lateness exceeds this share
/// of the workload's latency limit: requests then went out too far off
/// schedule for the latencies to describe the offered rate.
inline constexpr double kMaxLateShareOfLimit = 0.25;

struct Lateness {
  Samples late_ms;
  bool valid = true;
};
Lateness lateness_of(const LoopRun& run, double limit_ms);

}  // namespace perfbench
