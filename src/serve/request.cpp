#include "serve/request.hpp"

#include <charconv>
#include <cmath>
#include <limits>

namespace mev::serve {

std::string count_domain_error(const math::Matrix& counts) {
  const float* values = counts.data();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const float value = values[i];
    // NaN fails both comparisons.
    if (value >= 0.0f && value <= std::numeric_limits<float>::max())
      continue;
    char text[32];
    const auto printed = std::to_chars(text, text + sizeof(text), value);
    return "row " + std::to_string(i / counts.cols()) + " column " +
           std::to_string(i % counts.cols()) + ": " +
           (std::isfinite(value) ? "negative" : "non-finite") + " count " +
           std::string(text, printed.ptr) +
           " (counts must be finite and >= 0)";
  }
  return {};
}

}  // namespace mev::serve
