#include "serve/service_oracle.hpp"

#include <atomic>
#include <string>
#include <utility>

#include "runtime/oracle_error.hpp"

namespace mev::serve {

std::vector<int> ServiceOracle::label_counts(const math::Matrix& counts) {
  record_queries(counts.rows());
  SubmitOptions options;
  options.deadline_ms = deadline_ms_;

  // Zero-future closed loop: the verdict lands in this stack frame via
  // the callback path — no completion slot, no allocation per query. The
  // attacker loop is the hottest submitter in the repo (every mutation
  // candidate is a query), so it rides the cheapest ingress there is.
  struct SyncCtx {
    ScoreResult result;
    std::atomic<int> done{0};
  } ctx;
  service_->submit_with_callback(
      counts, options,
      [](void* raw, ScoreResult&& result) {
        auto* sync = static_cast<SyncCtx*>(raw);
        sync->result = std::move(result);
        sync->done.store(1, std::memory_order_release);
        sync->done.notify_one();
      },
      &ctx);

  if (service_->config().workers == 0) {
    // Manual-pump service: drive the batch through ourselves.
    while (ctx.done.load(std::memory_order_acquire) == 0)
      service_->pump();
  } else {
    int observed = ctx.done.load(std::memory_order_acquire);
    while (observed == 0) {
      ctx.done.wait(observed, std::memory_order_acquire);
      observed = ctx.done.load(std::memory_order_acquire);
    }
  }

  const ScoreResult& result = ctx.result;
  if (!result.ok()) {
    const std::string what =
        std::string("ServiceOracle: submission rejected: ") +
        to_string(result.rejected);
    if (result.rejected == RejectReason::kShuttingDown)
      throw runtime::PermanentOracleError(what);
    throw runtime::TransientOracleError(what);
  }
  std::vector<int> labels(result.verdicts.size());
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = result.verdicts[i].predicted_class;
  return labels;
}

}  // namespace mev::serve
