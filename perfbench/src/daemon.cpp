/// \file daemon.cpp
/// Spawning, probing and stopping the serve daemon.

#include "daemon.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "serve/http.hpp"

namespace perfbench {

Daemon::Daemon(const std::string& cli, const std::vector<std::string>& args) {
  std::vector<std::string> argv_text = {cli, "serve", "--port", "0"};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_text) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("perfbench: pipe failed");
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    throw std::runtime_error("perfbench: fork failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];

  // The daemon prints one line once it listens: "... http://HOST:PORT ...".
  std::string line;
  const std::int64_t deadline = now_ns() + 30LL * 1000000000LL;
  while (line.find('\n') == std::string::npos) {
    pollfd fd{stdout_fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now_ns()) / 1000000);
    if (wait_ms <= 0 || ::poll(&fd, 1, wait_ms) <= 0) {
      stop();
      throw std::runtime_error("perfbench: daemon did not report its port");
    }
    char buffer[512];
    const ssize_t got = ::read(stdout_fd_, buffer, sizeof buffer);
    if (got <= 0) {
      stop();
      throw std::runtime_error("perfbench: daemon exited before listening");
    }
    line.append(buffer, static_cast<std::size_t>(got));
  }
  const std::size_t scheme = line.find("http://");
  const std::size_t colon = scheme == std::string::npos ? scheme : line.find(':', scheme + 7);
  if (colon == std::string::npos) {
    stop();
    throw std::runtime_error("perfbench: unexpected daemon banner: " + line);
  }
  port_ = std::atoi(line.c_str() + colon + 1);
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const std::int64_t deadline = now_ns() + 5LL * 1000000000LL;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double Daemon::peak_rss_mb() const { return perfbench::peak_rss_mb(std::to_string(pid_)); }

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::size_t warm_pass(int port, const std::vector<std::string>& bodies) {
  greenfpga::serve::HttpClient client("127.0.0.1", port);
  std::size_t failed = 0;
  for (const std::string& body : bodies) {
    failed += client.request("POST", "/v1/run", body).status == 200 ? 0 : 1;
  }
  return failed;
}

greenfpga::io::Json get_stats(int port) {
  greenfpga::serve::HttpClient client("127.0.0.1", port);
  return greenfpga::io::parse_json(client.request("GET", "/v1/stats").body);
}

void wait_healthy(int port) {
  const std::int64_t deadline = now_ns() + 30LL * 1000000000LL;
  while (true) {
    try {
      greenfpga::serve::HttpClient client("127.0.0.1", port);
      if (client.request("GET", "/healthz").status == 200) {
        return;
      }
    } catch (const std::exception&) {
      // not up yet
    }
    if (now_ns() > deadline) {
      throw std::runtime_error("perfbench: daemon never became healthy");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace perfbench
