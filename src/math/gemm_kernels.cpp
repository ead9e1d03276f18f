#include "math/gemm_kernels.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MEV_GEMM_X86 1
#include <immintrin.h>
#else
#define MEV_GEMM_X86 0
#endif

namespace mev::math::gemm {

namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

// Portable: the original row-at-a-time loops. The compiler vectorizes the
// j loop of ab at its baseline width; a_bt is a sequential dot product.
void portable_ab(const AbProblem& p, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* ci = p.c + i * p.n;
    if (!p.accumulate) std::fill(ci, ci + p.n, 0.0f);
    const float* ai = p.a + i * p.a_row;
    for (std::size_t kk = 0; kk < p.k; ++kk) {
      const float aik = ai[kk * p.a_k];
      if (aik == 0.0f) continue;  // feature vectors are sparse
      const float* bk = p.b + kk * p.n;
      for (std::size_t j = 0; j < p.n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void portable_a_bt(const ABtProblem& p, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* ai = p.a + i * p.k;
    float* ci = p.c + i * p.n;
    for (std::size_t j = 0; j < p.n; ++j) {
      const float* bj = p.b + j * p.k;
      float s = 0.0f;
      for (std::size_t kk = 0; kk < p.k; ++kk) s += ai[kk] * bj[kk];
      ci[j] = s;
    }
  }
}

constexpr KernelSet kPortable{"portable", 1, portable_ab, portable_a_bt};

#if MEV_GEMM_X86

namespace avx2 {
#define MEV_SIMD __attribute__((target("avx2,fma")))
struct Simd {
  using V = __m256;
  using Mask = __m256i;
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kAbVectors = 2;  // 4 x 2 accumulators
  static constexpr std::size_t kABtCols = 2;
  MEV_SIMD static V zero() { return _mm256_setzero_ps(); }
  MEV_SIMD static V set1(float x) { return _mm256_set1_ps(x); }
  MEV_SIMD static V load(const float* p) { return _mm256_loadu_ps(p); }
  MEV_SIMD static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  /// Lanes [0, n) active, n <= 8.
  MEV_SIMD static Mask mask(std::size_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  MEV_SIMD static V load(const float* p, Mask m) {
    return _mm256_maskload_ps(p, m);
  }
  MEV_SIMD static void store(float* p, V v, Mask m) {
    _mm256_maskstore_ps(p, m, v);
  }
  MEV_SIMD static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  MEV_SIMD static float sum(V v) {
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_movehdup_ps(s));
    return _mm_cvtss_f32(s);
  }
};
#include "math/gemm_simd.inc"
#undef MEV_SIMD
}  // namespace avx2

namespace avx512 {
#define MEV_SIMD __attribute__((target("avx512f,avx2,fma")))
struct Simd {
  using V = __m512;
  using Mask = __mmask16;
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kAbVectors = 4;  // 4 x 4 accumulators
  static constexpr std::size_t kABtCols = 4;
  MEV_SIMD static V zero() { return _mm512_setzero_ps(); }
  MEV_SIMD static V set1(float x) { return _mm512_set1_ps(x); }
  MEV_SIMD static V load(const float* p) { return _mm512_loadu_ps(p); }
  MEV_SIMD static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  /// Lanes [0, n) active, n <= 16.
  MEV_SIMD static Mask mask(std::size_t n) {
    return static_cast<Mask>((1u << n) - 1u);
  }
  MEV_SIMD static V load(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  MEV_SIMD static void store(float* p, V v, Mask m) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  MEV_SIMD static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  // maskz forms: GCC's unmasked ones read an "undefined" source that
  // -Wuninitialized flags under a target attribute.
  MEV_SIMD static float sum(V v) {
    v = _mm512_add_ps(v, _mm512_maskz_shuffle_f32x4(0xFFFF, v, v, 0x4E));
    v = _mm512_add_ps(v, _mm512_maskz_shuffle_f32x4(0xFFFF, v, v, 0xB1));
    __m128 s = _mm512_maskz_extractf32x4_ps(0xF, v, 0);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_movehdup_ps(s));
    return _mm_cvtss_f32(s);
  }
};
#include "math/gemm_simd.inc"
#undef MEV_SIMD
}  // namespace avx512

constexpr KernelSet kAvx2{"avx2", avx2::Simd::kLanes, avx2::ab_rows,
                          avx2::a_bt_rows};
constexpr KernelSet kAvx512{"avx512", avx512::Simd::kLanes, avx512::ab_rows,
                            avx512::a_bt_rows};

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool cpu_has_avx512() {
  return cpu_has_avx2() && __builtin_cpu_supports("avx512f");
}

#endif  // MEV_GEMM_X86

const KernelSet& select_kernels() noexcept {
#if MEV_GEMM_X86
  if (cpu_has_avx512()) return kAvx512;
  if (cpu_has_avx2()) return kAvx2;
#endif
  return kPortable;
}

/// Below this many multiply-adds a kernel call stays on the calling thread.
constexpr std::size_t kParallelMacs = std::size_t{1} << 16;
/// Rows per parallel work item: a multiple of the SIMD row block.
constexpr std::size_t kRowsPerTask = 4;

/// Runs `kernel` over rows [0, m) in row blocks, in parallel when the
/// product is large enough, each block followed by `epilogue` on the same
/// thread. Each output row is computed by exactly one call, and its value
/// does not depend on which.
template <typename Problem>
void run_rows(void (*kernel)(const Problem&, std::size_t, std::size_t),
              const Problem& p, std::size_t m, std::size_t macs,
              const RowEpilogue* epilogue = nullptr) {
  const std::size_t tasks = (m + kRowsPerTask - 1) / kRowsPerTask;
#pragma omp parallel for schedule(static) if (tasks > 1 && macs > kParallelMacs)
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t i0 = t * kRowsPerTask;
    const std::size_t i1 = std::min(m, i0 + kRowsPerTask);
    kernel(p, i0, i1);
    if (epilogue != nullptr)
      epilogue->apply(epilogue->ctx, p.c + i0 * p.n, i1 - i0);
  }
}

}  // namespace

const KernelSet& active() noexcept {
  static const KernelSet& chosen = select_kernels();
  return chosen;
}

std::vector<const KernelSet*> supported() {
  std::vector<const KernelSet*> out{&kPortable};
#if MEV_GEMM_X86
  if (cpu_has_avx2()) out.push_back(&kAvx2);
  if (cpu_has_avx512()) out.push_back(&kAvx512);
#endif
  return out;
}

void matmul_into(const KernelSet& ks, const Matrix& a, const Matrix& b,
                 Matrix& c, const RowEpilogue* epilogue) {
  require(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.resize(m, n);
  if (n < ks.lanes) {
    // Narrow output: C = A * (B^T)^T through the dot-product kernel, which
    // fills every lane; the ab tile would use n of them.
    thread_local std::vector<float> bt;
    bt.resize(n * k);
    const float* src = b.data();
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j) bt[j * k + kk] = src[kk * n + j];
    const ABtProblem p{a.data(), bt.data(), c.data(), k, n};
    run_rows(ks.a_bt, p, m, m * n * k, epilogue);
    return;
  }
  const AbProblem p{a.data(), k, 1, b.data(), c.data(), k, n, false};
  run_rows(ks.ab, p, m, m * n * k, epilogue);
}

void matmul_at_b_into(const KernelSet& ks, const Matrix& a, const Matrix& b,
                      Matrix& c, bool accumulate) {
  require(a.rows() == b.rows(), "matmul_at_b: row mismatch");
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  if (accumulate)
    require(c.rows() == m && c.cols() == n,
            "matmul_at_b_into: accumulate shape mismatch");
  else
    c.resize(m, n);
  const AbProblem p{a.data(), 1, m, b.data(), c.data(), k, n, accumulate};
  run_rows(ks.ab, p, m, m * n * k);
}

void matmul_a_bt_into(const KernelSet& ks, const Matrix& a, const Matrix& b,
                      Matrix& c) {
  require(a.cols() == b.cols(), "matmul_a_bt: col mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  c.resize(m, n);
  const ABtProblem p{a.data(), b.data(), c.data(), k, n};
  run_rows(ks.a_bt, p, m, m * n * k);
}

}  // namespace mev::math::gemm

namespace mev::math {

const char* kernel_isa() noexcept { return gemm::active().isa; }

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c,
                 const RowEpilogue* epilogue) {
  gemm::matmul_into(gemm::active(), a, b, c, epilogue);
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c,
                      bool accumulate) {
  gemm::matmul_at_b_into(gemm::active(), a, b, c, accumulate);
}

void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm::matmul_a_bt_into(gemm::active(), a, b, c);
}

}  // namespace mev::math
