// Coordinated-omission test of the open-loop generator.
//
// Stub peers on socketpairs answer MATCH frames at once, except that the
// whole peer stalls once for kStallMs. The generator drives them through
// the same exchange() the served workloads use. Requests that come due
// during the stall must carry the wait in their latency, the lateness
// must show it, and a run that late must be reported invalid; the same
// run without the stall must be valid with small latencies.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "serve/protocol.hpp"
#include "util/frame.hpp"
#include "wire.hpp"

namespace {

namespace serve = matchsparse::serve;
using perfbench::now_s;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

constexpr double kRate = 1000;      // requests per second
constexpr double kSeconds = 1.0;
constexpr double kStallAt = 0.2;    // the stall starts with the first
                                    // request due at or after this time
constexpr double kStallMs = 300;
constexpr std::size_t kConns = 2;

/// Answers every MATCH frame on `fd` with an empty kOk reply. When
/// `stall` is set, the first request due at or after kStallAt opens a
/// kStallMs window shared by every peer, and no peer replies inside it.
void stub_peer(int fd, bool stall, std::atomic<double>* window_end) {
  matchsparse::FrameDecoder dec;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return;
    dec.feed(buf, static_cast<std::size_t>(n));
    matchsparse::Frame f;
    while (dec.next(&f) == matchsparse::FrameDecoder::Status::kFrame) {
      const std::uint64_t index = f.request_id;
      if (stall && index >= kStallAt * kRate) {
        double expected = 0.0;
        window_end->compare_exchange_strong(expected, now_s() + kStallMs / 1e3);
      }
      const double until = window_end->load();
      if (until > 0) {
        const double wait = until - now_s();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      const auto bytes = matchsparse::encode_frame(
          serve::encode_reply(serve::FrameType::kMatch, serve::MatchReply{}, f.request_id));
      if (::write(fd, bytes.data(), bytes.size()) != static_cast<ssize_t>(bytes.size())) {
        return;
      }
    }
  }
}

struct Run {
  perfbench::LoopRun loop;
  std::size_t replies = 0;
};

Run drive(bool stall) {
  std::atomic<double> window_end{0.0};
  std::vector<serve::Client> clients;
  std::vector<std::thread> peers;
  for (std::size_t c = 0; c < kConns; ++c) {
    int fds[2];
    CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    clients.emplace_back(fds[0]);
    peers.emplace_back(
        [fd = fds[1], stall, &window_end] {
          stub_peer(fd, stall, &window_end);
          ::close(fd);
        });
  }
  std::atomic<std::size_t> replies{0};
  serve::JobRequest job;
  job.source = "g";
  Run run;
  run.loop = perfbench::run_open_loop(
      kRate, kSeconds, kConns,
      [&](std::size_t conn, std::uint64_t i, perfbench::Timing& t) {
        const perfbench::Reply r = perfbench::exchange(
            clients[conn],
            [&job, i] { return serve::encode(serve::FrameType::kMatch, job, i); },
            nullptr, "request");
        t.done = now_s();
        if (r.match) replies.fetch_add(1);
      });
  for (serve::Client& c : clients) c.close();
  for (std::thread& p : peers) p.join();
  run.replies = replies.load();
  return run;
}

}  // namespace

int main() {
  const std::size_t expected = static_cast<std::size_t>(kRate * kSeconds);

  const Run stalled = drive(true);
  CHECK(stalled.replies == expected);
  CHECK(stalled.loop.timings.size() == expected);
  // Find when the stall released: the earliest reply after kStallAt that
  // took longer than half the stall.
  double released = 0;
  for (const perfbench::Timing& t : stalled.loop.timings) {
    if (t.due >= kStallAt && t.latency() > kStallMs / 2e3) {
      released = std::max(released, t.done);
    }
  }
  CHECK(released >= kStallAt + kStallMs / 1e3 * 0.9);
  // Every request that came due inside the stall waited for its end, and
  // its latency, timed from when it was due, says so.
  std::size_t inside = 0;
  for (const perfbench::Timing& t : stalled.loop.timings) {
    if (t.due >= kStallAt + 0.01 && t.due <= released - 0.05) {
      ++inside;
      CHECK(t.latency() >= released - t.due - 0.01);
      CHECK(t.lateness() >= released - t.due - 0.01 - 1.0 / kRate * kConns);
    }
  }
  CHECK(inside >= kStallMs / 1e3 * kRate * 0.7);
  const perfbench::Lateness stalled_late = perfbench::lateness_of(stalled.loop, 100);
  CHECK(stalled_late.late_ms.quantile(0.99).value_or(0) >= kStallMs * 0.8);
  CHECK(!stalled_late.valid);

  const Run smooth = drive(false);
  CHECK(smooth.replies == expected);
  const perfbench::Lateness smooth_late = perfbench::lateness_of(smooth.loop, 100);
  CHECK(smooth_late.valid);
  perfbench::Samples latency_ms;
  for (const perfbench::Timing& t : smooth.loop.timings) latency_ms.add(t.latency() * 1e3);
  CHECK(latency_ms.quantile(0.5).value_or(1e9) < 5.0);

  std::printf("test_loadgen: %s (stalled: %zu requests due in the stall, "
              "late p99 %.1f ms; smooth: late p99 %.3f ms)\n",
              g_failures == 0 ? "ok" : "FAILED", inside,
              stalled_late.late_ms.quantile(0.99).value_or(0),
              smooth_late.late_ms.quantile(0.99).value_or(0));
  return g_failures == 0 ? 0 : 1;
}
