#include "http_load.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>

#include "math/rng.hpp"

namespace perfbench {

namespace {

constexpr const char* kApiKey = "perfbench";

/// Owns one file descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

struct Connection {
  Fd fd;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<std::size_t> inflight;  // exchange indices, FIFO
  bool want_out = false;
  explicit Connection(int f) : fd(f) {}
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// "name;dur=1.234, ..." → the durations in order.
bool parse_server_timing(std::string_view value,
                         std::array<double, kTimingStages>& out) {
  std::size_t n = 0, pos = 0;
  while (n < kTimingStages) {
    pos = value.find("dur=", pos);
    if (pos == std::string_view::npos) break;
    pos += 4;
    const std::size_t end = value.find_first_of(", ", pos);
    const std::string number(value.substr(pos, end == std::string_view::npos
                                                    ? std::string_view::npos
                                                    : end - pos));
    out[n++] = std::strtod(number.c_str(), nullptr);
  }
  return n == kTimingStages;
}

std::string_view header_value(std::string_view headers,
                              std::string_view name) {
  const std::size_t at = headers.find(name);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + name.size();
  const std::size_t end = headers.find("\r\n", begin);
  return headers.substr(begin, end - begin);
}

}  // namespace

std::string http_score_request(std::string_view content_type,
                               std::string_view body,
                               std::uint64_t deadline_ms) {
  std::string req = "POST /v1/score HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: ";
  req += content_type;
  req += "\r\nX-Api-Key: ";
  req += kApiKey;
  req += "\r\nX-Deadline-Ms: " + std::to_string(deadline_ms);
  req += "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  return req;
}

std::string json_rows(const mev::math::Matrix& rows) {
  std::string out = "[";
  char buf[32];
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    out += r == 0 ? "[" : ",[";
    const auto row = rows.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::snprintf(buf, sizeof(buf), c == 0 ? "%.9g" : ",%.9g",
                    static_cast<double>(row[c]));
      out += buf;
    }
    out += ']';
  }
  return out + "]";
}

std::vector<double> poisson_schedule(double rate_per_s, double seconds,
                                     std::uint64_t seed) {
  mev::math::Rng rng(seed);
  std::vector<double> due;
  for (double t = rng.exponential(rate_per_s); t < seconds;
       t += rng.exponential(rate_per_s))
    due.push_back(t);
  return due;
}

bool parse_verdicts(std::string_view body,
                    std::vector<std::pair<bool, double>>& out) {
  out.clear();
  std::size_t pos = body.find("\"verdicts\":[");
  if (pos == std::string_view::npos) return false;
  for (;;) {
    pos = body.find("\"malware\":", pos);
    if (pos == std::string_view::npos) break;
    pos += 10;
    const bool malware = body.substr(pos, 4) == "true";
    pos = body.find("\"confidence\":", pos);
    if (pos == std::string_view::npos) return false;
    pos += 13;
    const std::size_t end = body.find_first_of(",}", pos);
    if (end == std::string_view::npos) return false;
    const std::string number(body.substr(pos, end - pos));
    out.emplace_back(malware, std::strtod(number.c_str(), nullptr));
    pos = end;
  }
  return true;
}

LoopResult run_loop(const LoopSpec& spec) {
  const PinThread pin(client_cpus());
  LoopResult result;
  const std::vector<WireRequest>& requests = *spec.requests;
  const bool open = !spec.due_s.empty();

  Fd epoll(::epoll_create1(0));
  if (epoll.get() < 0) {
    result.error = "epoll setup failed";
    return result;
  }
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    const int fd = connect_to(spec.port);
    if (fd < 0) {
      result.error = "connect failed";
      return result;
    }
    conns.push_back(std::make_unique<Connection>(fd));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &ev);
  }
  result.connections = conns.size();

  const auto set_out_interest = [&](std::size_t c, bool want) {
    Connection& conn = *conns[c];
    if (conn.want_out == want) return;
    conn.want_out = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
  };
  const auto flush = [&](std::size_t c) {
    Connection& conn = *conns[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd.get(), conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_out_interest(c, true);
        return;
      } else {
        result.error = "send failed";
        return;
      }
    }
    conn.out.clear();
    conn.out_off = 0;
    set_out_interest(c, false);
  };

  std::size_t outstanding = 0;
  std::size_t next_template = 0;
  const auto dispatch = [&](std::size_t c, Clock::time_point due) {
    Exchange ex;
    ex.due = due;
    ex.sent = Clock::now();
    ex.request = next_template++ % requests.size();
    conns[c]->out += requests[ex.request].bytes;
    conns[c]->inflight.push_back(result.exchanges.size());
    result.exchanges.push_back(ex);
    ++outstanding;
    flush(c);
  };

  result.start = Clock::now();
  const Clock::time_point closed_end =
      result.start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(spec.duration_s));
  const auto due_at = [&](std::size_t i) {
    return result.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(spec.due_s[i]));
  };
  std::size_t next_due = 0;
  Clock::time_point last_send = result.start;
  if (open) {
    result.exchanges.reserve(spec.due_s.size());
  } else {
    for (std::size_t c = 0; c < conns.size(); ++c) dispatch(c, result.start);
  }

  const auto handle_readable = [&](std::size_t c) {
    Connection& conn = *conns[c];
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      result.error = "connection closed by the server";
      return;
    }
    const Clock::time_point now = Clock::now();
    for (;;) {
      const std::size_t header_end = conn.in.find("\r\n\r\n", conn.in_off);
      if (header_end == std::string::npos) break;
      const std::string_view headers(conn.in.data() + conn.in_off,
                                     header_end + 4 - conn.in_off);
      const std::size_t body_len = static_cast<std::size_t>(std::strtoull(
          std::string(header_value(headers, "Content-Length: ")).c_str(),
          nullptr, 10));
      if (conn.in.size() < header_end + 4 + body_len) break;
      if (conn.inflight.empty()) {
        result.error = "reply without a request";
        return;
      }
      Exchange& ex = result.exchanges[conn.inflight.front()];
      conn.inflight.pop_front();
      --outstanding;
      ex.done = now;
      ex.status = headers.size() > 12
                      ? std::atoi(std::string(headers.substr(9, 3)).c_str())
                      : -1;
      ex.has_timing = parse_server_timing(
          header_value(headers, "Server-Timing: "), ex.timing_ms);
      if (spec.on_reply)
        spec.on_reply(ex, std::string_view(conn.in.data() + header_end + 4,
                                           body_len));
      conn.in_off = header_end + 4 + body_len;
      if (!open && now < closed_end) {
        dispatch(c, now);
        last_send = now;
      }
    }
    if (conn.in_off == conn.in.size()) {
      conn.in.clear();
      conn.in_off = 0;
    } else if (conn.in_off > (1u << 16)) {
      conn.in.erase(0, conn.in_off);
      conn.in_off = 0;
    }
  };

  epoll_event events[64];
  while (result.error.empty()) {
    const Clock::time_point now = Clock::now();
    if (open) {
      while (next_due < spec.due_s.size() && due_at(next_due) <= now) {
        dispatch(next_due % conns.size(), due_at(next_due));
        last_send = now;
        ++next_due;
      }
    }
    const bool sending_done =
        open ? next_due == spec.due_s.size() : now >= closed_end;
    if (sending_done && outstanding == 0) break;
    if (sending_done &&
        seconds_between(last_send, now) > spec.drain_s)
      break;  // unanswered exchanges keep status -1
    // The client polls without sleeping: a sleeping generator wakes late by
    // the host's wake-up latency (ms on a busy shared host), which would
    // then be measured as server latency.
    const int n = ::epoll_wait(epoll.get(), events, 64, 0);
    // With one CPU the server shares the client's; polling must not hold it.
    if (n == 0) ::sched_yield();
    for (int i = 0; i < n && result.error.empty(); ++i) {
      const std::size_t tag = events[i].data.u64;
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP))
        handle_readable(tag);
      if (result.error.empty() && (events[i].events & EPOLLOUT)) flush(tag);
    }
  }
  result.end = Clock::now();
  return result;
}

}  // namespace perfbench
