// matchsparse_serve — the matching-as-a-service daemon (DESIGN.md §15).
//
//   matchsparse_serve --socket=/run/matchsparse.sock
//   matchsparse_serve --tcp=7447 --cache-bytes=1g --max-inflight=16
//
// Serves the serve/protocol.hpp frame protocol (LOAD / SPARSIFY / MATCH
// / PIPELINE / STATS / EVICT / CANCEL / SHUTDOWN) over a unix-domain
// socket and/or a loopback TCP port. Runs in the foreground; stops on
// SIGINT/SIGTERM or a SHUTDOWN frame, draining in-flight requests
// through their guards' cancellation path.
//
// Flags:
//   --socket=<path>      unix-domain listener (unlinked on exit)
//   --tcp=<port>         loopback TCP listener; 0 picks an ephemeral
//                        port (printed on stdout)
//   --cache-bytes=<n>    graph+sparsifier cache cap (k/m/g suffixes;
//                        default 256m) — also the pool that per-request
//                        memory budgets are clamped against
//   --max-inflight=<n>   concurrent job ceiling before shedding
//                        (default 8; 0 = unlimited)
//   --max-threads=<n>    per-job lane-count ceiling; requests asking
//                        for more are refused with bad-config
//                        (default 256)
//   --metrics=<prefix>   write per-request metrics snapshots to
//                        <prefix>.req<serial>.json
//   --trace=<prefix>     write per-request Chrome traces to
//                        <prefix>.req<serial>.json
//   --flight=<path>      flight-recorder dump file: overwritten on
//                        every guard-tripped request and on SIGUSR1
//                        (without the flag, SIGUSR1 dumps to stderr)
//   --flight-capacity=<n> flight-recorder ring slots (default 256)
//   --no-telemetry       disable the latency histograms / outcome
//                        counters (the flight recorder stays on)
//   --idle-timeout-ms=<n> idle-session reaper: drop a connection that
//                        sends nothing for n ms (default 300000; 0
//                        disables — a half-open peer then pins its
//                        session thread forever)
//   --write-timeout-ms=<n> per-reply send deadline: drop a peer that
//                        stops draining its socket (default 30000;
//                        0 disables)
//   --dedup-window=<n>   idempotency-token dedup window: completed
//                        replies kept for retry replay (default 1024;
//                        0 disables token dedup)
//   --retry-after-ms=<n> backoff hint stamped on shed refusals
//                        (default 20)
//
// SIGUSR1 dumps the flight ring (last N completed requests, ndjson)
// without disturbing service — the "what just happened" signal.

#include <pthread.h>
#include <signal.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "util/parse.hpp"

namespace {

using matchsparse::parse_bytes;
using matchsparse::parse_u64;
using matchsparse::serve::ServeCounter;
using matchsparse::serve::Server;
using matchsparse::serve::ServerOptions;

int usage() {
  std::fprintf(
      stderr,
      "usage: matchsparse_serve [--socket=<path>] [--tcp=<port>]\n"
      "                         [--cache-bytes=<n[k|m|g]>] "
      "[--max-inflight=<n>]\n"
      "                         [--max-threads=<n>] [--metrics=<prefix>] "
      "[--trace=<prefix>]\n"
      "                         [--flight=<path>] [--flight-capacity=<n>] "
      "[--no-telemetry]\n"
      "                         [--idle-timeout-ms=<n>] "
      "[--write-timeout-ms=<n>]\n"
      "                         [--dedup-window=<n>] [--retry-after-ms=<n>]\n"
      "at least one of --socket / --tcp is required\n");
  return 2;
}

bool flag_value(const char* arg, const char* name, const char** value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions opts;
  // The daemon defends itself by default (the library defaults keep the
  // legacy fully-blocking behavior for in-process harnesses): idle
  // sessions are reaped after 5 minutes, a peer that stops draining a
  // reply loses the connection after 30 seconds.
  opts.session_idle_timeout_ms = 300000.0;
  opts.session_write_timeout_ms = 30000.0;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (flag_value(argv[i], "--socket", &v)) {
      opts.socket_path = v;
    } else if (flag_value(argv[i], "--tcp", &v)) {
      const auto port = parse_u64(v);
      if (!port || *port > 65535) {
        std::fprintf(stderr, "matchsparse_serve: bad --tcp=%s\n", v);
        return 2;
      }
      opts.tcp_port = static_cast<int>(*port);
    } else if (flag_value(argv[i], "--cache-bytes", &v)) {
      const auto bytes = parse_bytes(v);
      if (!bytes || *bytes == 0) {
        std::fprintf(stderr, "matchsparse_serve: bad --cache-bytes=%s\n", v);
        return 2;
      }
      opts.cache_bytes = *bytes;
    } else if (flag_value(argv[i], "--max-inflight", &v)) {
      const auto n = parse_u64(v);
      if (!n || *n > 0xffffffffull) {
        std::fprintf(stderr, "matchsparse_serve: bad --max-inflight=%s\n", v);
        return 2;
      }
      opts.max_inflight = static_cast<std::uint32_t>(*n);
    } else if (flag_value(argv[i], "--max-threads", &v)) {
      const auto n = parse_u64(v);
      if (!n || *n == 0) {
        std::fprintf(stderr, "matchsparse_serve: bad --max-threads=%s\n", v);
        return 2;
      }
      opts.max_job_threads = *n;
    } else if (flag_value(argv[i], "--metrics", &v)) {
      opts.metrics_prefix = v;
    } else if (flag_value(argv[i], "--trace", &v)) {
      opts.trace_prefix = v;
    } else if (flag_value(argv[i], "--flight", &v)) {
      opts.flight_path = v;
    } else if (flag_value(argv[i], "--flight-capacity", &v)) {
      const auto n = parse_u64(v);
      if (!n || *n == 0) {
        std::fprintf(stderr, "matchsparse_serve: bad --flight-capacity=%s\n",
                     v);
        return 2;
      }
      opts.flight_capacity = static_cast<std::size_t>(*n);
    } else if (std::strcmp(argv[i], "--no-telemetry") == 0) {
      opts.telemetry = false;
    } else if (flag_value(argv[i], "--idle-timeout-ms", &v)) {
      const auto ms = matchsparse::parse_double(v);
      if (!ms || *ms < 0.0) {
        std::fprintf(stderr, "matchsparse_serve: bad --idle-timeout-ms=%s\n",
                     v);
        return 2;
      }
      opts.session_idle_timeout_ms = *ms;
    } else if (flag_value(argv[i], "--write-timeout-ms", &v)) {
      const auto ms = matchsparse::parse_double(v);
      if (!ms || *ms < 0.0) {
        std::fprintf(stderr, "matchsparse_serve: bad --write-timeout-ms=%s\n",
                     v);
        return 2;
      }
      opts.session_write_timeout_ms = *ms;
    } else if (flag_value(argv[i], "--dedup-window", &v)) {
      const auto n = parse_u64(v);
      if (!n) {
        std::fprintf(stderr, "matchsparse_serve: bad --dedup-window=%s\n", v);
        return 2;
      }
      opts.dedup_window = static_cast<std::size_t>(*n);
    } else if (flag_value(argv[i], "--retry-after-ms", &v)) {
      const auto ms = matchsparse::parse_double(v);
      if (!ms || *ms < 0.0) {
        std::fprintf(stderr, "matchsparse_serve: bad --retry-after-ms=%s\n",
                     v);
        return 2;
      }
      opts.shed_retry_after_ms = *ms;
    } else {
      std::fprintf(stderr, "matchsparse_serve: unknown flag %s\n", argv[i]);
      return usage();
    }
  }
  if (opts.socket_path.empty() && opts.tcp_port < 0) return usage();

  // MSG_NOSIGNAL covers the send paths; this covers any stray write.
  ::signal(SIGPIPE, SIG_IGN);
  // SIGINT/SIGTERM/SIGUSR1 are handled synchronously by a sigwait
  // thread — begin_drain takes locks and the flight dump allocates, so
  // neither may run in a signal handler.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  Server server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "matchsparse_serve: %s\n", error.c_str());
    return 1;
  }
  if (!opts.socket_path.empty()) {
    std::printf("listening on unix:%s\n", opts.socket_path.c_str());
  }
  if (opts.tcp_port >= 0) {
    std::printf("listening on tcp:127.0.0.1:%d\n", server.tcp_port());
  }
  std::fflush(stdout);

  const std::string flight_path = opts.flight_path;
  std::thread signal_thread([&stop_signals, &server, &flight_path] {
    for (;;) {
      int sig = 0;
      sigwait(&stop_signals, &sig);
      if (sig == SIGUSR1) {
        // Dump-on-demand: the ring to the flight file (or stderr),
        // service undisturbed.
        const std::string dump = server.flight_ndjson();
        if (flight_path.empty()) {
          std::fwrite(dump.data(), 1, dump.size(), stderr);
          std::fflush(stderr);
        } else if (std::FILE* out = std::fopen(flight_path.c_str(), "w")) {
          std::fwrite(dump.data(), 1, dump.size(), out);
          std::fclose(out);
          std::fprintf(stderr, "matchsparse_serve: flight ring -> %s\n",
                       flight_path.c_str());
        }
        continue;
      }
      if (!server.shutting_down()) {
        std::fprintf(stderr, "matchsparse_serve: %s, draining\n",
                     strsignal(sig));
      }
      server.stop();
      return;
    }
  });

  server.wait();  // SHUTDOWN frame, signal, or stop()
  // Wake the sigwait thread if the shutdown came over the wire instead.
  pthread_kill(signal_thread.native_handle(), SIGTERM);
  signal_thread.join();
  server.stop();

  const auto n = [&server](ServeCounter c) {
    return static_cast<unsigned long long>(server.telemetry_plane().value(c));
  };
  std::printf("served %llu requests (%llu errors, %llu shed, %llu cancelled, "
              "%llu replayed, %llu reaped) over %llu connections\n",
              n(ServeCounter::kRequests), n(ServeCounter::kErrors),
              n(ServeCounter::kShed), n(ServeCounter::kCancelsDelivered),
              n(ServeCounter::kDedupReplays), n(ServeCounter::kSessionsReaped),
              n(ServeCounter::kConnections));
  return 0;
}
