// GEMM kernel variants: every variant this CPU supports (always including
// the portable one) against a double-precision reference, on the shapes
// that exercise row-block, vector and k tails, plus the batch-invariance
// and thread-count contracts the rest of the library relies on.
#include "math/gemm_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "math/rng.hpp"

namespace mev::math {
namespace {

struct Shape {
  std::size_t m, k, n;
};

// m = 1, m % 4 != 0, n and k off every vector width (8, 16), k = 2 (the
// output layer's backward), and the detector's first-layer shape.
const std::vector<Shape> kShapes = {
    {1, 1, 1},   {1, 491, 192}, {3, 17, 5},    {5, 33, 70},
    {7, 64, 2},  {6, 2, 208},   {9, 208, 240}, {64, 53, 37}};

/// Uniform in [-1, 1), with every third element zeroed (sparse inputs) and,
/// with `zero_row`, row 1 all zeros.
Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                     bool zero_row = false) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] =
        i % 3 == 0 ? 0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
  if (zero_row && rows > 1)
    for (float& x : m.row(1)) x = 0.0f;
  return m;
}

/// |got - ref| <= k * 2^-24 * sum |a b|: the worst-case bound of float
/// summation of k products in any order, with or without FMA.
void expect_matches(const Matrix& got, const Matrix& ref, const Matrix& bound,
                    const std::string& what) {
  ASSERT_TRUE(got.same_shape(ref)) << what;
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      ASSERT_LE(std::abs(static_cast<double>(got(i, j)) - ref(i, j)),
                bound(i, j) + 1e-30)
          << what << " at (" << i << ", " << j << ")";
}

/// Double reference of C = A * B with its error bound; `at` = A(i, kk).
template <class At, class Bt>
void reference(std::size_t m, std::size_t k, std::size_t n, At at, Bt bt,
               Matrix& ref, Matrix& bound) {
  ref = Matrix(m, n);
  bound = Matrix(m, n);
  const double u = std::ldexp(1.0, -24);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0, abs_s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double p = static_cast<double>(at(i, kk)) * bt(kk, j);
        s += p;
        abs_s += std::abs(p);
      }
      ref(i, j) = static_cast<float>(s);
      // Plus one rounding of the double result to float.
      bound(i, j) = static_cast<float>(static_cast<double>(k) * u * abs_s +
                                       u * std::abs(s));
    }
}

std::string label(const gemm::KernelSet& ks, const Shape& s) {
  return std::string(ks.isa) + " m=" + std::to_string(s.m) +
         " k=" + std::to_string(s.k) + " n=" + std::to_string(s.n);
}

TEST(GemmKernels, PortableIsAlwaysSupportedAndActiveIsTheWidest) {
  const auto variants = gemm::supported();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.front()->isa, "portable");
  EXPECT_EQ(variants.back(), &gemm::active());
  EXPECT_STREQ(kernel_isa(), gemm::active().isa);
}

TEST(GemmKernels, MatmulMatchesDoubleReference) {
  for (const gemm::KernelSet* ks : gemm::supported())
    for (const Shape& s : kShapes) {
      const Matrix a = random_matrix(s.m, s.k, 1, /*zero_row=*/true);
      const Matrix b = random_matrix(s.k, s.n, 2);
      Matrix ref, bound, c(3, 3, 7.0f);  // stale contents are overwritten
      reference(
          s.m, s.k, s.n,
          [&](std::size_t i, std::size_t kk) { return a(i, kk); },
          [&](std::size_t kk, std::size_t j) { return b(kk, j); }, ref, bound);
      gemm::matmul_into(*ks, a, b, c);
      expect_matches(c, ref, bound, "matmul " + label(*ks, s));
      if (s.m > 1) {
        for (std::size_t j = 0; j < s.n; ++j)
          EXPECT_EQ(c(1, j), 0.0f) << "zero row, " << label(*ks, s);
      }
    }
}

TEST(GemmKernels, MatmulAtBMatchesDoubleReferenceAndAccumulates) {
  for (const gemm::KernelSet* ks : gemm::supported())
    for (const Shape& s : kShapes) {
      // C (m x n) = A^T B with A k x m: A's row 1 zero is a zero k step.
      const Matrix a = random_matrix(s.k, s.m, 3, /*zero_row=*/true);
      const Matrix b = random_matrix(s.k, s.n, 4);
      Matrix ref, bound, c;
      reference(
          s.m, s.k, s.n,
          [&](std::size_t i, std::size_t kk) { return a(kk, i); },
          [&](std::size_t kk, std::size_t j) { return b(kk, j); }, ref, bound);
      gemm::matmul_at_b_into(*ks, a, b, c);
      expect_matches(c, ref, bound, "at_b " + label(*ks, s));

      // accumulate: C0 + A^T B, one more rounding per element at most.
      const Matrix c0 = random_matrix(s.m, s.n, 5);
      Matrix acc = c0;
      gemm::matmul_at_b_into(*ks, a, b, acc, /*accumulate=*/true);
      Matrix ref_acc = ref, bound_acc = bound;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ref_acc.data()[i] += c0.data()[i];
        bound_acc.data()[i] +=
            2.0f * std::ldexp(1.0f, -24) *
            (std::abs(c0.data()[i]) + std::abs(ref.data()[i]) +
             bound.data()[i]);
      }
      expect_matches(acc, ref_acc, bound_acc,
                     "at_b accumulate " + label(*ks, s));
    }
}

TEST(GemmKernels, MatmulABtMatchesDoubleReference) {
  for (const gemm::KernelSet* ks : gemm::supported())
    for (const Shape& s : kShapes) {
      // C (m x n) = A B^T with B n x k.
      const Matrix a = random_matrix(s.m, s.k, 6, /*zero_row=*/true);
      const Matrix b = random_matrix(s.n, s.k, 7);
      Matrix ref, bound, c;
      reference(
          s.m, s.k, s.n,
          [&](std::size_t i, std::size_t kk) { return a(i, kk); },
          [&](std::size_t kk, std::size_t j) { return b(j, kk); }, ref, bound);
      gemm::matmul_a_bt_into(*ks, a, b, c);
      expect_matches(c, ref, bound, "a_bt " + label(*ks, s));
      if (s.m > 1) {
        for (std::size_t j = 0; j < s.n; ++j)
          EXPECT_EQ(c(1, j), 0.0f) << "zero row, " << label(*ks, s);
      }
    }
}

TEST(GemmKernels, RowResultsAreBitIdenticalAloneAndInABatch) {
  for (const gemm::KernelSet* ks : gemm::supported()) {
    const Matrix a = random_matrix(23, 70, 8);
    const Matrix b = random_matrix(70, 37, 9);
    const Matrix bt = random_matrix(37, 70, 10);
    Matrix batch_ab, batch_abt, one;
    gemm::matmul_into(*ks, a, b, batch_ab);
    gemm::matmul_a_bt_into(*ks, a, bt, batch_abt);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const Matrix row = a.slice_rows(r, r + 1);
      gemm::matmul_into(*ks, row, b, one);
      EXPECT_EQ(one, batch_ab.slice_rows(r, r + 1)) << ks->isa << " row " << r;
      gemm::matmul_a_bt_into(*ks, row, bt, one);
      EXPECT_EQ(one, batch_abt.slice_rows(r, r + 1)) << ks->isa << " row " << r;
    }
  }
}

TEST(GemmKernels, MatmulEpilogueVisitsEveryRowOnce) {
  // Adds 1 to each element it is handed: a row visited twice, or missed,
  // shows. 65 x 300 x 37 is split across threads; n = 3 is narrow.
  const auto add_one = [](const void* cols, float* rows, std::size_t count) {
    const std::size_t n = *static_cast<const std::size_t*>(cols);
    for (std::size_t i = 0; i < count * n; ++i) rows[i] += 1.0f;
  };
  for (const gemm::KernelSet* ks : gemm::supported())
    for (const std::size_t n : {37, 3}) {
      const Matrix a = random_matrix(65, 300, 22);
      const Matrix b = random_matrix(300, n, 23);
      Matrix plain, with;
      gemm::matmul_into(*ks, a, b, plain);
      const RowEpilogue epilogue{add_one, &n};
      gemm::matmul_into(*ks, a, b, with, &epilogue);
      for (std::size_t i = 0; i < plain.size(); ++i) plain.data()[i] += 1.0f;
      EXPECT_EQ(with, plain) << ks->isa << " n=" << n;
    }
}

/// Narrow-output widths for `ks`: 1, 2, 3 and, for a SIMD variant, one
/// below its lane count (the widest n that takes the dot-product path).
std::vector<std::size_t> narrow_widths(const gemm::KernelSet& ks) {
  std::vector<std::size_t> ns{1, 2, 3};
  if (ks.lanes > 4) ns.push_back(ks.lanes - 1);
  return ns;
}

// k off every vector width (8, 16), below, between and above them.
const std::vector<std::size_t> kNarrowDepths = {1, 13, 67};

TEST(GemmKernels, NarrowMatmulMatchesDoubleReference) {
  for (const gemm::KernelSet* ks : gemm::supported())
    for (const std::size_t n : narrow_widths(*ks))
      for (const std::size_t m : {1, 5, 64})
        for (const std::size_t k : kNarrowDepths) {
          const Shape s{m, k, n};
          const Matrix a = random_matrix(m, k, 14, /*zero_row=*/true);
          const Matrix b = random_matrix(k, n, 15);
          Matrix ref, bound, c;
          reference(
              m, k, n, [&](std::size_t i, std::size_t kk) { return a(i, kk); },
              [&](std::size_t kk, std::size_t j) { return b(kk, j); }, ref,
              bound);
          gemm::matmul_into(*ks, a, b, c);
          expect_matches(c, ref, bound, "narrow matmul " + label(*ks, s));
          if (m > 1) {
            for (std::size_t j = 0; j < n; ++j)
              EXPECT_EQ(c(1, j), 0.0f) << "zero row, " << label(*ks, s);
          }
        }
}

TEST(GemmKernels, NarrowMatmulIsTheDotProductKernelInSimdVariants) {
  for (const gemm::KernelSet* ks : gemm::supported()) {
    if (ks->lanes == 1) continue;  // portable keeps its row loops
    for (const std::size_t n : narrow_widths(*ks)) {
      const Matrix a = random_matrix(5, 67, 16);
      const Matrix b = random_matrix(67, n, 17);
      Matrix c, dot;
      gemm::matmul_into(*ks, a, b, c);
      gemm::matmul_a_bt_into(*ks, a, b.transposed(), dot);
      EXPECT_EQ(c, dot) << ks->isa << " n=" << n;
    }
  }
}

TEST(GemmKernels, NarrowMatmulRowsAreBitIdenticalAloneAndInABatch) {
  for (const gemm::KernelSet* ks : gemm::supported())
    for (const std::size_t n : narrow_widths(*ks)) {
      const Matrix a = random_matrix(64, 67, 18);
      const Matrix b = random_matrix(67, n, 19);
      Matrix batch, one;
      gemm::matmul_into(*ks, a, b, batch);
      for (std::size_t r = 0; r < a.rows(); ++r) {
        gemm::matmul_into(*ks, a.slice_rows(r, r + 1), b, one);
        EXPECT_EQ(one, batch.slice_rows(r, r + 1))
            << ks->isa << " n=" << n << " row " << r;
      }
    }
}

#ifdef _OPENMP
TEST(GemmKernels, NarrowMatmulDoesNotDependOnTheThreadCount) {
  const int threads = omp_get_max_threads();
  for (const gemm::KernelSet* ks : gemm::supported())
    for (const std::size_t n : narrow_widths(*ks)) {
      // 64 x 1031 x n is above the 2^16 multiply-adds that go parallel
      // for every n >= 1.
      const Matrix a = random_matrix(64, 1031, 20);
      const Matrix b = random_matrix(1031, n, 21);
      Matrix c[2];
      for (int pass = 0; pass < 2; ++pass) {
        omp_set_num_threads(pass == 0 ? 1 : 3);
        gemm::matmul_into(*ks, a, b, c[pass]);
      }
      EXPECT_EQ(c[0], c[1]) << ks->isa << " n=" << n;
    }
  omp_set_num_threads(threads);
}

TEST(GemmKernels, ResultsDoNotDependOnTheThreadCount) {
  const int threads = omp_get_max_threads();
  for (const gemm::KernelSet* ks : gemm::supported()) {
    const Matrix a = random_matrix(64, 200, 11);
    const Matrix b = random_matrix(200, 150, 12);
    const Matrix bt = random_matrix(150, 200, 13);
    Matrix ab[2], at_b[2], abt[2];
    for (int pass = 0; pass < 2; ++pass) {
      omp_set_num_threads(pass == 0 ? 1 : 3);
      gemm::matmul_into(*ks, a, b, ab[pass]);
      gemm::matmul_at_b_into(*ks, a, a, at_b[pass]);
      gemm::matmul_a_bt_into(*ks, a, bt, abt[pass]);
    }
    EXPECT_EQ(ab[0], ab[1]) << ks->isa;
    EXPECT_EQ(at_b[0], at_b[1]) << ks->isa;
    EXPECT_EQ(abt[0], abt[1]) << ks->isa;
  }
  omp_set_num_threads(threads);
}
#endif

}  // namespace
}  // namespace mev::math
