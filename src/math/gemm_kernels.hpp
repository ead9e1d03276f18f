// The dense GEMM kernels behind matmul_into, matmul_at_b_into and
// matmul_a_bt_into, compiled once per ISA level and picked once per
// process from what the CPU supports.
//
// Variants:
//  * "portable"  plain C++ at the compiler's baseline ISA; bit-identical to
//                the original scalar loops. Built everywhere and always
//                available, so tests exercise it on every machine.
//  * "avx2"      AVX2 + FMA, 8 lanes (x86-64 only).
//  * "avx512"    AVX-512F, 16 lanes (x86-64 only).
//
// Every variant keeps two numeric contracts:
//  * Batch invariance: a row's result depends only on that row, never on
//    the batch it sits in or its position there. Each output element sums
//    over k in the same order whatever rows surround it; blocking rows only
//    shares the loads of B.
//  * Determinism: results do not depend on the OpenMP thread count.
// Different variants may differ in the last bits (FMA, lane-wise sums);
// tests hold them to a stated tolerance against a double reference.
//
// Narrow outputs: a SIMD matmul_into with n below the variant's lane count
// (the 2-class logit layer) would fill only n lanes of each vector, so it
// transposes B into a small buffer and runs the a_bt kernel instead: each
// element becomes a lane-wise dot product over k. That keeps both contracts
// but is not bit-identical to the ab path of the same variant.
#pragma once

#include <cstddef>
#include <vector>

#include "math/matrix.hpp"

namespace mev::math::gemm {

/// Rows [i0, i1) of C (+)= A * B, where a(i, kk) = a[i * a_row + kk * a_k],
/// B is k x n and C has n columns, both row-major. The strides let one
/// kernel serve A * B (a_row = k, a_k = 1) and A^T * B (a_row = 1,
/// a_k = a's column count). Steps where a(i, kk) is 0 for every row of a
/// block are skipped: layer-1 inputs are sparse count features.
struct AbProblem {
  const float* a;
  std::size_t a_row, a_k;
  const float* b;
  float* c;
  std::size_t k, n;
  bool accumulate;  // start from C's values instead of 0
};

/// Rows [i0, i1) of C = A * B^T; A has k columns, B is n x k, C has n
/// columns, all row-major.
struct ABtProblem {
  const float* a;
  const float* b;
  float* c;
  std::size_t k, n;
};

using AbKernel = void (*)(const AbProblem&, std::size_t i0, std::size_t i1);
using ABtKernel = void (*)(const ABtProblem&, std::size_t i0, std::size_t i1);

/// One ISA level's kernels.
struct KernelSet {
  const char* isa;    // "portable", "avx2" or "avx512"
  std::size_t lanes;  // floats per vector; 1 for portable
  AbKernel ab;
  ABtKernel a_bt;
};

/// The variant chosen for this process: the widest one the CPU supports.
const KernelSet& active() noexcept;

/// Every variant this CPU can run, portable first.
std::vector<const KernelSet*> supported();

// The Matrix-level entry points with an explicit variant; the functions of
// the same name in matrix.hpp pass active(). Shape rules as there.
void matmul_into(const KernelSet& ks, const Matrix& a, const Matrix& b,
                 Matrix& c, const RowEpilogue* epilogue = nullptr);
void matmul_at_b_into(const KernelSet& ks, const Matrix& a, const Matrix& b,
                      Matrix& c, bool accumulate = false);
void matmul_a_bt_into(const KernelSet& ks, const Matrix& a, const Matrix& b,
                      Matrix& c);

}  // namespace mev::math::gemm
