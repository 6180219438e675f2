#pragma once
// Compute-kernel layer under vf::nn: cache-blocked, packed-panel GEMM with a
// register-tiled SIMD micro-kernel, plus the fused dense-layer forward used
// by training.
//
// Layout (BLIS-style):
//   - the k dimension is split into Kc panels, the n dimension into Nc
//     blocks and the m dimension into Mc bands; each (Nc, Kc) block of B is
//     packed into Kc x NR micro-panels and each thread packs its band of A
//     (the rows present, at most Mc) into MR x Kc micro-panels (packing
//     also absorbs the A^T / B^T operand layouts, so all three GEMM
//     variants share one micro-kernel);
//   - the micro-kernel accumulates a 4-row register tile over two adjacent
//     128-byte B micro-panels (4 x 32 doubles or 4 x 64 floats, 16 vector
//     accumulators) with `#pragma omp simd` FMA chains, then writes the
//     tile back once — the naive kernels instead re-streamed the whole B
//     panel from L2/L3 for every output row. A forward over a few rows
//     pads at most 3 zero rows;
//   - the k-summation order per output element matches the naive triple
//     loop and does not depend on which rows share its tile; the only
//     deviation from the naive kernels is that partial sums are
//     re-associated at Kc-panel boundaries (and FMA contraction may
//     differ), so results agree with them to a few ulps (~1e-13 relative),
//     not necessarily bit-for-bit.
//
// Two entry points run one loop over packed B blocks. gemm_blocked packs
// each block of B as the loop reaches it (training, where the weights
// change every step, and fused_dense_forward). gemm_packed reads a B that
// pack_b_panels packed once — a model's inference form
// (vf::nn::QuantizedNetwork), so a forward over a few rows pays no
// repack. At fp64 both visit the same blocks in the same order, so their
// results are equal bit for bit. The same template, instantiated for
// float, runs the fp32/fp16/int8 inference forms over one Kc panel.
//
// The fused forward applies `+ bias` and optionally ReLU inside the tile
// write-back of the last Kc panel, eliminating the separate full passes
// over the output that add_row_vector + ReluLayer::forward used to make.

#include "vf/nn/matrix.hpp"

namespace vf::nn {

/// Fused dense layer: out = act(input . weights + bias) with
/// act = ReLU when `relu`, identity otherwise. Equivalent to
/// gemm + add_row_vector + elementwise ReLU up to GEMM rounding (see the
/// header note). `out` must not alias `input`.
void fused_dense_forward(const Matrix& input, const Matrix& weights,
                         const Matrix& bias, bool relu, Matrix& out);

// Naive reference kernels (the pre-kernel-layer implementations), retained
// for the equivalence test suite and as the comparison baseline in
// bench/micro_kernels.
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out);
void gemm_at_b_naive(const Matrix& a, const Matrix& b, Matrix& out);
void gemm_a_bt_naive(const Matrix& a, const Matrix& b, Matrix& out);

namespace detail {

/// Blocked GEMM core: C(m x n, leading dim ldc) = op(A) . op(B), where
/// op(A) is A(m x k) row-major with leading dimension lda, or, when
/// `a_trans`, the transpose of A stored (k x m); likewise op(B) is
/// B(k x n) or, when `b_trans`, the transpose of B stored (n x k).
/// C is fully overwritten. When `bias` is non-null it is a length-n row
/// added to every output row; `relu` clamps negatives, both applied in the
/// final-panel write-back.
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, bool a_trans,
                  const double* b, std::size_t ldb, bool b_trans, double* c,
                  std::size_t ldc, const double* bias, bool relu);

/// Elements pack_b_panels<T> writes for a k x n B: its columns are
/// zero-padded to a multiple of the 128-byte micro-panel width.
template <typename T>
[[nodiscard]] std::size_t packed_b_size(std::size_t k, std::size_t n);

/// Pack B (k x n elements of T, row-major, leading dimension n) once, into
/// packed_b_size<T>(k, n) elements at `dst`, in the order gemm_packed
/// reads. `b` is read through memcpy, so it may be unaligned: a view into
/// a model file's bytes packs without a row-major copy first.
template <typename T>
void pack_b_panels(std::size_t k, std::size_t n, const void* b, T* dst);

/// C = A . B (+ bias, ReLU) with A (m x k, leading dimension lda) not
/// transposed and B already packed by pack_b_panels<T>(k, n, ...). For
/// double it runs gemm_blocked's blocks, k order and epilogue, so the
/// result equals gemm_blocked's bit for bit; for float the whole inner
/// dimension is one Kc panel, so each output is one k-ordered sum.
/// Instantiated for double and float.
template <typename T>
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, const T* a,
                 std::size_t lda, const T* bpanels, T* c, std::size_t ldc,
                 const T* bias, bool relu);

}  // namespace detail

}  // namespace vf::nn
