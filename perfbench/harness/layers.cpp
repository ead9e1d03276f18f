// Per-layer timings of the traced run: bench-side calls into one public
// function of a layer at a time, on the workloads' own bodies and rows and
// on both networks' layer shapes.
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "http_load.hpp"
#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "net/wire.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "nn/session.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mev;

namespace {

/// Calls `f` (one pass over `items` items) repeatedly for about
/// `budget_s`, at least five times after a warm-up pass; returns the median
/// microseconds per item.
template <class F>
double us_per_item(F&& f, std::size_t items, double budget_s) {
  f();
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    f();
    samples.push_back(seconds_since(t0) * 1e6 / static_cast<double>(items));
  }
  return median(std::move(samples));
}

math::Matrix random_matrix(std::size_t rows, std::size_t cols, math::Rng& rng) {
  math::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      m(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

/// (in, out) of every dense layer of `net`.
std::vector<std::pair<std::size_t, std::size_t>> dense_shapes(
    const nn::Network& net) {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t l = 0; l < net.num_layers(); ++l)
    if (const auto* d = dynamic_cast<const nn::DenseLayer*>(&net.layer(l)))
      shapes.emplace_back(d->input_dim(), d->output_dim());
  return shapes;
}

enum class Kernel { kAB, kAtB, kABt };

/// One GEMM kernel over every layer shape of both networks at `batch`:
/// reports G MAC/s, and the MACs and bytes of one pass (from tensor sizes).
void kernel_metrics(Kernel kernel, std::size_t batch, const std::string& name,
                    const std::vector<std::pair<std::size_t, std::size_t>>& shapes,
                    double budget_s, Metrics& m) {
  math::Rng rng(batch * 7919 + static_cast<std::size_t>(kernel));
  struct Operands {
    math::Matrix a, b, c;
  };
  std::vector<Operands> ops;
  double macs = 0.0, bytes = 0.0;
  for (const auto& [in, out] : shapes) {
    Operands o;
    switch (kernel) {
      case Kernel::kAB:  // activations x weights: batch x in * in x out
        o.a = random_matrix(batch, in, rng);
        o.b = random_matrix(in, out, rng);
        o.c = math::Matrix(batch, out);
        break;
      case Kernel::kAtB:  // weight gradient: (batch x in)^T * batch x out
        o.a = random_matrix(batch, in, rng);
        o.b = random_matrix(batch, out, rng);
        o.c = math::Matrix(in, out);
        break;
      case Kernel::kABt:  // input gradient: batch x out * (in x out)^T
        o.a = random_matrix(batch, out, rng);
        o.b = random_matrix(in, out, rng);
        o.c = math::Matrix(batch, in);
        break;
    }
    macs += static_cast<double>(batch * in * out);
    bytes += 4.0 * static_cast<double>(o.a.size() + o.b.size() + o.c.size());
    ops.push_back(std::move(o));
  }
  const double us = us_per_item(
      [&] {
        for (Operands& o : ops) {
          switch (kernel) {
            case Kernel::kAB: math::matmul_into(o.a, o.b, o.c); break;
            case Kernel::kAtB: math::matmul_at_b_into(o.a, o.b, o.c); break;
            case Kernel::kABt: math::matmul_a_bt_into(o.a, o.b, o.c); break;
          }
        }
      },
      1, budget_s);
  const std::string suffix = ".b" + std::to_string(batch);
  m.set("math." + name + "_gmacs" + suffix, macs / (us * 1e3), "GMAC/s");
  m.set("math." + name + "_macs" + suffix, macs, "count");
  m.set("math." + name + "_bytes" + suffix, bytes, "bytes");
}

std::vector<math::Matrix> blocks_of(const math::Matrix& rows, std::size_t n) {
  std::vector<math::Matrix> out;
  for (std::size_t r = 0; r + n <= rows.rows(); r += n)
    out.push_back(rows.slice_rows(r, r + n));
  return out;
}

}  // namespace

void layer_suite(World& world, const Options& options, Metrics& m) {
  const double budget = options.smoke ? 0.02 : 0.2;
  core::MalwareDetector& detector = world.detector();
  const math::Matrix pool = world.test_rows(kLayerRows);
  const std::size_t cols = pool.cols();
  const std::vector<math::Matrix> rows1 = blocks_of(pool, 1);
  const std::vector<math::Matrix> rows64 = blocks_of(pool, kBulkRows);
  const math::Matrix features = detector.features_of_counts(pool);
  const std::vector<math::Matrix> feat1 = blocks_of(features, 1);
  const std::vector<math::Matrix> feat64 = blocks_of(features, kBulkRows);

  // net: the bodies the two score workloads send.
  {
    std::vector<std::string> binary, json;
    for (const math::Matrix& r : rows1) binary.push_back(net::encode_binary_rows(r));
    for (const math::Matrix& b : rows64) json.push_back(json_rows(b));
    LayerSpan span("net.parse_rows");
    m.set("net.parse_binary_us_per_row",
          us_per_item(
              [&] {
                for (const std::string& body : binary)
                  if (!net::parse_binary_rows(body, cols).ok)
                    throw std::runtime_error("binary body rejected");
              },
              binary.size(), budget),
          "us");
    m.set("net.parse_json_us_per_row",
          us_per_item(
              [&] {
                for (const std::string& body : json)
                  if (!net::parse_json_rows(body, cols).ok)
                    throw std::runtime_error("JSON body rejected");
              },
              json.size() * kBulkRows, budget),
          "us");
  }

  // core: detector scans with the benchmark's own sessions.
  {
    LayerSpan span("core.scan_counts");
    nn::InferenceSession s1 = detector.make_session(1);
    m.set("core.scan_us_per_row.b1",
          us_per_item(
              [&] {
                for (const math::Matrix& r : rows1) detector.scan_counts(s1, r);
              },
              rows1.size(), budget),
          "us");
    nn::InferenceSession s64 = detector.make_session(kBulkRows);
    m.set("core.scan_us_per_row.b64",
          us_per_item(
              [&] {
                for (const math::Matrix& b : rows64) detector.scan_counts(s64, b);
              },
              rows64.size() * kBulkRows, budget),
          "us");
  }

  // features: the count transform alone.
  {
    LayerSpan span("features.features_of_counts");
    m.set("features.transform_us_per_row.b64",
          us_per_item(
              [&] {
                for (const math::Matrix& b : rows64) detector.features_of_counts(b);
              },
              rows64.size() * kBulkRows, budget),
          "us");
  }

  // nn: forward on the target; forward and input gradients on a substitute
  // of the grey-box shape (timings do not depend on its weights).
  const nn::Network substitute =
      nn::make_mlp(world.config.substitute_architecture(cols));
  {
    LayerSpan span("nn.forward");
    nn::InferenceSession s1(detector.network(), 1);
    nn::InferenceSession s64(detector.network(), kBulkRows);
    nn::InferenceSession sub(substitute, kBulkRows);
    m.set("nn.forward_us_per_row.b1",
          us_per_item([&] { for (const math::Matrix& r : feat1) s1.forward(r); },
                      feat1.size(), budget),
          "us");
    m.set("nn.forward_us_per_row.b64",
          us_per_item([&] { for (const math::Matrix& b : feat64) s64.forward(b); },
                      feat64.size() * kBulkRows, budget),
          "us");
    m.set("nn.forward_us_per_row.sub_b64",
          us_per_item([&] { for (const math::Matrix& b : feat64) sub.forward(b); },
                      feat64.size() * kBulkRows, budget),
          "us");
  }
  {
    LayerSpan span("nn.input_gradients_all");
    nn::InferenceSession sub(substitute, kBulkRows);
    m.set("nn.input_grads_us_per_row.b64",
          us_per_item(
              [&] {
                for (const math::Matrix& b : feat64) sub.input_gradients_all(b);
              },
              feat64.size() * kBulkRows, budget),
          "us");
  }

  // math: the *_into kernels over both networks' layer shapes.
  auto shapes = dense_shapes(detector.network());
  for (const auto& s : dense_shapes(substitute)) shapes.push_back(s);
  {
    LayerSpan span("math.matmul_into");
    kernel_metrics(Kernel::kAB, 1, "matmul", shapes, budget, m);
    kernel_metrics(Kernel::kAB, 64, "matmul", shapes, budget, m);
  }
  {
    LayerSpan span("math.matmul_at_b_into");
    kernel_metrics(Kernel::kAtB, 256, "matmul_at_b", shapes, budget, m);
  }
  {
    LayerSpan span("math.matmul_a_bt_into");
    kernel_metrics(Kernel::kABt, 64, "matmul_a_bt", shapes, budget, m);
  }
}

void setup_layer_metrics(const std::vector<double>& generate_s,
                         const std::vector<double>& target_train_s,
                         Metrics& m) {
  m.set("data.generate_s", median(generate_s), "s");
  m.set("nn.target_train_s", median(target_train_s), "s");
}

}  // namespace perfbench
