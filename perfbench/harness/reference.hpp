// The independent output check: a double-precision forward pass written
// here from DenseLayer::weights() and DenseLayer::bias(), so a served
// verdict is compared against arithmetic that shares nothing with the
// library's GEMM kernels, sessions or softmax.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Reference verdicts of `net` for every row of `features`. With `corrupt`,
/// row 0's class is flipped — the harness's negative test of its own check.
Reference reference_verdicts(const mev::nn::Network& net,
                             const mev::math::Matrix& features, bool corrupt);

/// The same over raw API counts, through the detector's features_of_counts().
Reference reference_verdicts(const mev::core::MalwareDetector& detector,
                             const mev::math::Matrix& counts, bool corrupt);

}  // namespace perfbench
