// The load generator: one client thread driving several keep-alive
// connections to POST /v1/score with epoll, in either loop.
//
//  * Open loop: request i is due at a fixed offset from the start (seeded
//    Poisson arrivals) and is sent then, whatever the replies are doing.
//    The thread polls rather than sleeping, so it is not late by a wake-up.
//  * Closed loop: each connection keeps exactly one request outstanding;
//    the next one is due the moment the previous reply has been read.
//
// Every exchange records its due, send and completion times, the status,
// and the server's Server-Timing stage breakdown.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"
#include "math/matrix.hpp"

namespace perfbench {

/// One pre-encoded HTTP request and the reference rows its body carries,
/// in body order.
struct WireRequest {
  std::string bytes;
  std::vector<std::size_t> rows;
};

/// Encodes a keep-alive POST /v1/score with an API key and X-Deadline-Ms.
std::string http_score_request(std::string_view content_type,
                               std::string_view body,
                               std::uint64_t deadline_ms);

/// A JSON array-of-rows body, as POST /v1/score accepts.
std::string json_rows(const mev::math::Matrix& rows);

/// The Server-Timing entries the frontend stamps, in header order: parse,
/// admission, queue, batch, scan, serialize, total.
inline constexpr std::size_t kTimingStages = 7;

struct Exchange {
  Clock::time_point due{}, sent{}, done{};
  int status = -1;  // -1: no reply before the loop gave up
  bool has_timing = false;
  std::array<double, kTimingStages> timing_ms{};
  std::size_t request = 0;  // index into LoopSpec::requests

  double latency_from_due_ms() const {
    return std::chrono::duration<double, std::milli>(done - due).count();
  }
  double latency_from_send_ms() const {
    return std::chrono::duration<double, std::milli>(done - sent).count();
  }
  double gen_late_ms() const {
    return std::chrono::duration<double, std::milli>(sent - due).count();
  }
};

struct LoopSpec {
  std::uint16_t port = 0;
  std::size_t connections = 1;
  /// Request templates, cycled in order.
  const std::vector<WireRequest>* requests = nullptr;
  /// Open loop: seconds from the start at which each request is due.
  /// Empty selects the closed loop.
  std::vector<double> due_s;
  /// Closed loop: how long connections keep sending.
  double duration_s = 0.0;
  /// How long to wait for outstanding replies after the last send.
  double drain_s = 5.0;
  /// Called on the client thread for every reply, with its body.
  std::function<void(const Exchange&, std::string_view body)> on_reply;
};

struct LoopResult {
  std::vector<Exchange> exchanges;  // in send order
  Clock::time_point start{}, end{};
  std::size_t connections = 0;
  std::string error;  // empty when every connection stayed healthy
};

LoopResult run_loop(const LoopSpec& spec);

/// Parses `{"verdicts":[{"malware":b,"confidence":x},...]}`; false when the
/// body is not that shape.
bool parse_verdicts(std::string_view body,
                    std::vector<std::pair<bool, double>>& out);

/// Seeded Poisson arrival offsets at `rate_per_s` covering `seconds`.
std::vector<double> poisson_schedule(double rate_per_s, double seconds,
                                     std::uint64_t seed);

}  // namespace perfbench
