// The served path as a client sees it: the daemon process, one request
// on the wire split into its encode / round-trip / decode layers, and the
// daemon's STATS documents.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

/// A matchsparse_serve process. Its stdout and stderr go to `log_path`;
/// it is killed if this process dies first, and killed and reaped by the
/// destructor if it is still running.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::vector<std::string>& flags, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Polls until the socket accepts a connection; false when the process
  /// exited or `timeout_s` passed first.
  bool wait_ready(double timeout_s);
  /// VmHWM of the process in MB (10^6 bytes); nullopt when unreadable.
  std::optional<double> peak_rss_mb() const;
  /// Sends SHUTDOWN and reaps the process; kills it when it does not exit
  /// within `timeout_s`. True on a clean exit.
  bool shutdown(double timeout_s);

  const std::string& socket_path() const { return socket_path_; }

 private:
  bool reap(double timeout_s);

  std::string socket_path_;
  pid_t pid_ = -1;
};

/// VmHWM of /proc/<pid>/status ("self" for this process) in MB (10^6
/// bytes); nullopt when unreadable.
std::optional<double> vm_hwm_mb(const std::string& pid);

/// A decoded reply: exactly one of match / load / error is set when the
/// round trip worked; none when the transport failed or the frame did not
/// decode.
struct Reply {
  std::optional<matchsparse::serve::MatchReply> match;
  std::optional<matchsparse::serve::LoadReply> load;
  std::optional<matchsparse::serve::ErrorReply> error;
  std::size_t bytes = 0;  // reply frame on the wire
};

/// One request on `client`: encode (`encode`, i.e. serve::encode, then
/// encode_frame), round trip (send, then receive the reply frame) and
/// decode. When `tracer` is set each step is a span ("encode", "rtt",
/// "decode") below one span called `name`.
Reply exchange(matchsparse::serve::Client& client,
               const std::function<matchsparse::Frame()>& encode,
               matchsparse::obs::Tracer* tracer, std::string_view name);

/// The first number after `"key":` in a flat JSON document (the STATS
/// format-0 body); nullopt when absent.
std::optional<double> json_field(std::string_view doc, std::string_view key);

/// The value of one series (name plus label set, exactly as exposed) in a
/// Prometheus text body (the STATS format-1 body); nullopt when absent.
std::optional<double> prom_value(std::string_view body,
                                 std::string_view series);

}  // namespace perfbench
