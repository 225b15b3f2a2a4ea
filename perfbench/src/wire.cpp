#include "wire.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "loadgen.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace serve = matchsparse::serve;
using matchsparse::Frame;

Daemon::Daemon(const std::string& binary, const std::string& socket_path,
               const std::vector<std::string>& flags,
               const std::string& log_path)
    : socket_path_(socket_path) {
  ::unlink(socket_path.c_str());
  std::vector<std::string> args = {binary, "--socket=" + socket_path};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    reap(5.0);
  }
  ::unlink(socket_path_.c_str());
}

bool Daemon::reap(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      pid_ = -1;
      return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool Daemon::wait_ready(double timeout_s) {
  if (pid_ <= 0) return false;
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    if (serve::Client::connect_unix(socket_path_).valid()) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

std::optional<double> Daemon::peak_rss_mb() const {
  if (pid_ <= 0) return std::nullopt;
  return vm_hwm_mb(std::to_string(pid_));
}

bool Daemon::shutdown(double timeout_s) {
  if (pid_ <= 0) return false;
  serve::Client c = serve::Client::connect_unix(socket_path_);
  c.set_io_timeout_ms(timeout_s * 1e3);
  const bool acked = c.valid() && c.shutdown();
  c.close();
  return reap(timeout_s) && acked;
}

std::optional<double> vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return std::nullopt;
}

Reply exchange(serve::Client& client, const std::function<Frame()>& encode,
               matchsparse::obs::Tracer* tracer, std::string_view name) {
  const LayerSpan request(tracer, name);
  std::vector<std::uint8_t> bytes;
  {
    const LayerSpan span(tracer, "encode");
    bytes = matchsparse::encode_frame(encode());
  }
  std::optional<Frame> frame;
  {
    const LayerSpan span(tracer, "rtt");
    if (client.send_bytes(bytes.data(), bytes.size())) {
      frame = client.recv_frame();
    }
  }
  const LayerSpan span(tracer, "decode");
  Reply out;
  if (!frame) return out;
  out.bytes = matchsparse::kFrameLengthBytes + matchsparse::kFrameOverheadBytes +
              frame->payload.size();
  const std::span<const std::uint8_t> payload(frame->payload);
  if (frame->type == serve::reply(serve::FrameType::kMatch)) {
    out.match = serve::decode_match_reply(payload);
  } else if (frame->type == serve::reply(serve::FrameType::kLoad)) {
    out.load = serve::decode_load_reply(payload);
  } else if (frame->type == static_cast<std::uint8_t>(serve::FrameType::kError)) {
    out.error = serve::decode_error_reply(payload);
  }
  return out;
}

std::optional<double> json_field(std::string_view doc, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = doc.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string rest(doc.substr(at + needle.size(), 32));
  char* end = nullptr;
  const double v = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return std::nullopt;
  return v;
}

std::optional<double> prom_value(std::string_view body,
                                 std::string_view series) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    const std::string_view line = body.substr(pos, eol - pos);
    if (line.size() > series.size() && line.substr(0, series.size()) == series &&
        line[series.size()] == ' ') {
      const std::string num(line.substr(series.size() + 1));
      char* end = nullptr;
      const double v = std::strtod(num.c_str(), &end);
      if (end != num.c_str()) return v;
    }
    pos = eol + 1;
  }
  return std::nullopt;
}

}  // namespace perfbench
