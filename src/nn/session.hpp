// InferenceSession: a per-thread workspace/tape for evaluating one Network.
//
// The session owns every buffer a forward/backward sweep needs — a copy
// of the input batch, one output per layer (a dense layer keeps no
// separate pre-activation), dropout masks, the backward gradient chain,
// and parameter-gradient accumulators — sized once per
// (network, max_batch) and reused across calls. After warm-up the steady
// state performs ZERO heap allocations: all buffers are resized
// capacity-preservingly per batch.
//
// Threading model: share the Network (read-only), own a session per
// thread. Concurrent inference-mode forward/predict/input_gradient calls
// through distinct sessions are safe; training-mode forward on a network
// with dropout layers is the one operation that must stay single-threaded
// (the dropout rng stream lives in the layer for determinism).
//
// Returned references/spans point into session-owned buffers and stay
// valid until the next call on the same session.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "math/matrix.hpp"
#include "nn/layer.hpp"

namespace mev::nn {

class Network;

class InferenceSession {
 public:
  /// Binds to `net` (which must outlive the session and not be
  /// structurally modified — add(), move, assignment — while bound).
  /// `max_batch` > 0 pre-allocates all buffers for that batch size so even
  /// the first call is allocation-free.
  explicit InferenceSession(const Network& net, std::size_t max_batch = 0);

  const Network& network() const noexcept { return *net_; }

  /// Forward pass over a batch; returns the logits buffer
  /// (batch x classes). Allocation-free once warm.
  const math::Matrix& forward(const math::Matrix& x, bool training = false);

  /// The logits from the most recent forward.
  const math::Matrix& logits() const;

  /// Softmax probabilities at the given temperature.
  const math::Matrix& predict_proba(const math::Matrix& x,
                                    float temperature = 1.0f);

  /// Argmax class per row; the span is valid until the next call.
  std::span<const int> predict(const math::Matrix& x);

  /// Backward pass from dLoss/dLogits; returns dLoss/dInput. Must follow
  /// a forward() on the same batch; may be called multiple times per
  /// forward. With `accumulate_param_grads` the per-parameter gradients
  /// are accumulated into the session's accumulators (bind_params); the
  /// attack paths pass false and skip all parameter work.
  const math::Matrix& backward(const math::Matrix& grad_logits,
                               bool accumulate_param_grads = true);

  /// Gradient of the softmax probability of `target_class` with respect
  /// to the input, per sample (batch x input_dim). Runs its own forward
  /// pass in inference mode; never touches parameter gradients.
  const math::Matrix& input_gradient(const math::Matrix& x, int target_class);

  /// Gradients of ALL class probabilities: result[c] is batch x
  /// input_dim. Cheaper than calling input_gradient per class (single
  /// forward pass).
  std::span<const math::Matrix> input_gradients_all(const math::Matrix& x);

  /// Pairs `net`'s parameter tensors with this session's gradient
  /// accumulators for an optimizer. `net` must be the bound network.
  std::vector<ParamRef> bind_params(Network& net);

  /// Zeroes all parameter-gradient accumulators.
  void zero_param_grads();

 private:
  /// Softmax-Jacobian row for `target_class` into grad_logits_.
  void softmax_jacobian_row(std::size_t target_class);
  const math::Matrix& run_backward(bool accumulate_param_grads);
  const math::Matrix& layer_input(std::size_t layer_index) const;

  const Network* net_;
  std::vector<LayerWorkspace> ws_;   // one per layer
  math::Matrix input_;  // copy of the forward batch: a later backward
                        // reads it for layer 0's parameter gradients even
                        // when the caller's x is gone
  math::Matrix probs_;               // softmax buffer
  math::Matrix grad_logits_;         // backward seed (clobbered per pass)
  std::vector<math::Matrix> class_grads_;  // input_gradients_all results
  std::vector<int> labels_;          // predict buffer
};

/// Argmax class of every row of `x`, scored in chunks of at most
/// kPredictChunkRows rows through one session of that size, so the
/// transient buffers stay bounded however many rows `x` has. Rows are
/// scored independently, so the result equals one whole-batch predict.
inline constexpr std::size_t kPredictChunkRows = 64;
std::vector<int> predict_in_chunks(const Network& net, const math::Matrix& x);

}  // namespace mev::nn
