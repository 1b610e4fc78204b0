#ifndef PERFBENCH_DAEMON_HPP
#define PERFBENCH_DAEMON_HPP

/// \file daemon.hpp
/// One `greenfpga serve` child process: spawned on an ephemeral port,
/// stopped (SIGTERM, then SIGKILL) and reaped on destruction.  The child
/// also dies with the benchmark (PR_SET_PDEATHSIG), so no daemon
/// outlives a crashed run.

#include <sys/types.h>

#include <string>
#include <vector>

#include "io/json.hpp"

namespace perfbench {

class Daemon {
 public:
  /// Runs `cli serve --port 0 <args...>` and waits for its
  /// "listening on" line.  Throws std::runtime_error when it does not
  /// come up within 30 s.
  Daemon(const std::string& cli, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }

  /// Peak resident set (VmHWM) so far, in MB.
  [[nodiscard]] double peak_rss_mb() const;

  /// Stop and reap the child; idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// VmHWM of /proc/<pid>/status ("self" for this process), in MB.
[[nodiscard]] double peak_rss_mb(const std::string& pid);

/// POST every body to /v1/run over one keep-alive connection; returns
/// how many did not answer 200.
[[nodiscard]] std::size_t warm_pass(int port, const std::vector<std::string>& bodies);
[[nodiscard]] greenfpga::io::Json get_stats(int port);
/// Poll GET /healthz until it answers 200 (throws after 30 s).
void wait_healthy(int port);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_HPP
