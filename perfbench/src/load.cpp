/// \file load.cpp
/// Single-threaded poll(2) HTTP/1.1 load generator.

#include "load.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    const int error = errno;
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(error));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Case-insensitive search for `needle` (lowercase) in `haystack`.
std::size_t find_lower(std::string_view haystack, std::string_view needle) {
  const auto it = std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end(),
                              [](char a, char b) {
                                return (a >= 'A' && a <= 'Z' ? a - 'A' + 'a' : a) == b;
                              });
  return it == haystack.end() ? std::string_view::npos
                              : static_cast<std::size_t>(it - haystack.begin());
}

/// One keep-alive connection: queued request bytes out, response bytes
/// in, and the FIFO of outcome indices awaiting a response.
struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_sent = 0;
  std::string in;
  std::deque<std::size_t> pending;

  explicit Connection(int port) : fd(connect_loopback(port)) {
    in.reserve(1 << 20);  // the largest responses (~700 KB) without regrowth
  }
  ~Connection() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
};

class Generator {
 public:
  Generator(int port, int connections, const std::vector<std::string>& wires,
            LoadReport& report, Trace* trace, std::uint64_t trace_id_base)
      : port_(port), wires_(wires), report_(report), trace_(trace),
        trace_id_base_(trace_id_base) {
    for (int i = 0; i < connections; ++i) {
      connections_.push_back(std::make_unique<Connection>(port));
    }
  }

  /// Queue outcome `index` (already holding its body and due time) on
  /// `connection` and start writing it.
  void send(Connection& connection, std::size_t index) {
    Outcome& outcome = report_.outcomes[index];
    outcome.sent_ns = now_ns();
    if (connection.out_sent == connection.out.size()) {
      connection.out.clear();
      connection.out_sent = 0;
    }
    connection.out += wires_[outcome.body];
    connection.pending.push_back(index);
    ++in_flight_;
    flush(connection);
  }

  /// The connection with the fewest requests in flight, rotating ties.
  Connection& least_loaded() {
    std::size_t best = rotate_++ % connections_.size();
    for (std::size_t k = 0; k < connections_.size(); ++k) {
      const std::size_t i = (best + k) % connections_.size();
      if (connections_[i]->pending.size() < connections_[best]->pending.size()) {
        best = i;
      }
    }
    return *connections_[best];
  }

  /// Wait up to `timeout_ns` for socket events and process them.
  /// `on_complete(connection, index)` runs after each response.
  template <typename OnComplete>
  void poll_once(std::int64_t timeout_ns, OnComplete&& on_complete) {
    std::vector<pollfd> fds;
    fds.reserve(connections_.size());
    for (const auto& connection : connections_) {
      short events = POLLIN;
      if (connection->out_sent < connection->out.size()) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{connection->fd, events, 0});
    }
    timeout_ns = std::max<std::int64_t>(0, timeout_ns);
    const timespec timeout{static_cast<time_t>(timeout_ns / 1000000000),
                           static_cast<long>(timeout_ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) {
      return;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Connection& connection = *connections_[i];
      if ((fds[i].revents & POLLOUT) != 0) {
        flush(connection);
      }
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        receive(connection, on_complete);
      }
    }
  }

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

 private:
  void flush(Connection& connection) {
    while (connection.out_sent < connection.out.size()) {
      const ssize_t sent =
          ::send(connection.fd, connection.out.data() + connection.out_sent,
                 connection.out.size() - connection.out_sent, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          fail(connection);
        }
        return;
      }
      connection.out_sent += static_cast<std::size_t>(sent);
    }
  }

  template <typename OnComplete>
  void receive(Connection& connection, OnComplete& on_complete) {
    char buffer[1 << 16];
    while (true) {
      const ssize_t got = ::recv(connection.fd, buffer, sizeof buffer, 0);
      if (got > 0) {
        connection.in.append(buffer, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        parse(connection, on_complete);
        fail(connection);
        return;
      }
      break;
    }
    parse(connection, on_complete);
  }

  /// Consume every complete response at the front of `connection.in`.
  template <typename OnComplete>
  void parse(Connection& connection, OnComplete& on_complete) {
    std::size_t offset = 0;
    std::vector<std::size_t> completed;
    const std::string_view in(connection.in);
    while (!connection.pending.empty()) {
      const std::size_t head_end = in.find("\r\n\r\n", offset);
      if (head_end == std::string_view::npos) {
        break;
      }
      const std::string_view head = in.substr(offset, head_end - offset);
      const std::size_t length_at = find_lower(head, "\r\ncontent-length:");
      const std::size_t length =
          length_at == std::string_view::npos
              ? 0
              : std::strtoull(head.data() + length_at + 17, nullptr, 10);
      const std::size_t body_start = head_end + 4;
      if (in.size() - body_start < length) {
        break;
      }
      const std::size_t index = connection.pending.front();
      connection.pending.pop_front();
      --in_flight_;
      Outcome& outcome = report_.outcomes[index];
      outcome.done_ns = now_ns();
      outcome.status = head.size() > 12 ? std::atoi(head.data() + 9) : 0;
      outcome.length = length;
      outcome.digest = body_digest(in.substr(body_start, length));
      report_.bytes_received += length;
      if (trace_ != nullptr) {
        trace_->add(trace_id_base_ + index, "serve.http", outcome.sent_ns, outcome.done_ns,
                    length);
      }
      offset = body_start + length;
      completed.push_back(index);
    }
    connection.in.erase(0, offset);
    for (const std::size_t index : completed) {
      on_complete(connection, index);
    }
  }

  /// The peer closed or errored: every request in flight on it fails,
  /// and a fresh connection takes its place for later requests.
  void fail(Connection& connection) {
    in_flight_ -= connection.pending.size();
    connection.pending.clear();
    connection.in.clear();
    connection.out.clear();
    connection.out_sent = 0;
    ::close(connection.fd);
    connection.fd = connect_loopback(port_);
  }

  int port_;
  const std::vector<std::string>& wires_;
  LoadReport& report_;
  Trace* trace_;
  std::uint64_t trace_id_base_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::size_t in_flight_ = 0;
  std::size_t rotate_ = 0;
};

}  // namespace

std::string run_request(const std::string& body) {
  return "POST /v1/run HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

LoadReport open_loop(int port, int connections, const std::vector<std::string>& wires,
                     const std::vector<std::uint32_t>& order, double rate, double grace_s,
                     Trace* trace, std::uint64_t trace_id_base) {
  LoadReport report;
  const std::size_t total = order.size();
  report.outcomes.resize(total);
  Generator generator(port, connections, wires, report, trace, trace_id_base);
  const double interval_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1000000;
  for (std::size_t i = 0; i < total; ++i) {
    report.outcomes[i].body = order[i];
    report.outcomes[i].due_ns = start + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  }
  const std::int64_t last_due = total == 0 ? start : report.outcomes.back().due_ns;
  const std::int64_t deadline = last_due + static_cast<std::int64_t>(grace_s * 1e9);

  // Backlog (due but unanswered) sampled once per millisecond of schedule.
  std::vector<std::size_t> backlog_samples;
  std::int64_t next_sample = start;
  std::size_t next = 0;
  std::size_t completed = 0;
  auto on_complete = [&](Connection&, std::size_t) { ++completed; };
  while (true) {
    const std::int64_t now = now_ns();
    while (next < total && report.outcomes[next].due_ns <= now) {
      generator.send(generator.least_loaded(), next);
      ++next;
    }
    if ((next == total && generator.in_flight() == 0) || now > deadline) {
      break;
    }
    if (now >= next_sample && now <= last_due) {
      const std::size_t backlog = next - completed;
      report.backlog_max = std::max(report.backlog_max, backlog);
      backlog_samples.push_back(backlog);
      next_sample = now + 1000000;
    }
    const std::int64_t wake = next < total ? report.outcomes[next].due_ns : now + 50000000;
    generator.poll_once(std::min(wake, std::max(next_sample, now + 50000)) - now, on_complete);
  }
  if (backlog_samples.size() >= 8) {
    const std::size_t quarter = backlog_samples.size() / 4;
    double first = 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < quarter; ++i) {
      first += static_cast<double>(backlog_samples[i]);
      last += static_cast<double>(backlog_samples[backlog_samples.size() - 1 - i]);
    }
    first /= static_cast<double>(quarter);
    last /= static_cast<double>(quarter);
    report.backlog_growing = last > 2.0 * first + static_cast<double>(connections);
  }
  return report;
}

LoadReport closed_loop(int port, int connections, const std::vector<std::string>& wires,
                       const std::vector<std::uint32_t>& order, double seconds,
                       std::size_t& cursor) {
  LoadReport report;
  report.window_s = seconds;
  Generator generator(port, connections, wires, report, nullptr, 0);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  auto send_next = [&](Connection& connection) {
    Outcome outcome;
    outcome.body = order[cursor++ % order.size()];
    outcome.due_ns = now_ns();
    report.outcomes.push_back(outcome);
    generator.send(connection, report.outcomes.size() - 1);
  };
  auto on_complete = [&](Connection& connection, std::size_t) {
    if (now_ns() < end) {
      send_next(connection);
    }
  };
  for (int c = 0; c < connections; ++c) {
    send_next(generator.least_loaded());
  }
  // Drain what is in flight at the end so every response is checked.
  const std::int64_t drain_deadline = end + 10000000000LL;
  while (generator.in_flight() > 0 && now_ns() < drain_deadline) {
    generator.poll_once(50000000, on_complete);
  }
  return report;
}

}  // namespace perfbench
