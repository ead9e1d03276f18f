// Natural micro-batching: a worker that becomes free takes whatever is
// pending — whole requests, FIFO, up to `max_batch_rows` rows — and
// scores it in one call. Nothing waits for co-riders; batches grow with
// load on their own because requests pile up while the worker is busy.
// A plain single-threaded container, shared by the real worker pool and
// the manual pump() mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "serve/request.hpp"

namespace mev::serve {

/// A formed batch: whole requests, FIFO order.
struct Batch {
  std::vector<Request> requests;
  std::size_t rows = 0;
};

class MicroBatcher {
 public:
  /// `max_batch_rows` caps one batch. A single request larger than the
  /// cap forms its own (oversized) batch — requests are never split.
  explicit MicroBatcher(std::size_t max_batch_rows);

  /// Enqueues a request (FIFO). The caller has already admission-checked.
  void add(Request request);

  std::size_t pending_rows() const noexcept { return pending_rows_; }
  bool empty() const noexcept { return pending_.empty(); }

  /// Moves every pending request whose deadline has passed into `expired`
  /// (FIFO order). The service fails these with RejectReason::kDeadline.
  void take_expired(std::uint64_t now_ms, std::vector<Request>& expired);

  /// Forms the next batch from the front of the queue: whole requests up
  /// to max_batch_rows rows (always at least one, so an oversized request
  /// still makes progress). std::nullopt only when nothing is pending.
  /// take_expired() should run first so expired requests are not scored.
  std::optional<Batch> poll();

 private:
  std::size_t max_batch_rows_;
  std::deque<Request> pending_;
  std::size_t pending_rows_ = 0;
};

}  // namespace mev::serve
