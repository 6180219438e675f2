#include "vf/nn/kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "vf/obs/obs.hpp"
#include "vf/util/aligned.hpp"
#include "vf/util/contract.hpp"
#include "vf/util/parallel.hpp"

namespace vf::nn {

namespace {

void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// Below this many multiply-adds the fork/join cost dominates any speedup.
constexpr std::size_t kParallelWork = 1 << 14;

}  // namespace

namespace detail {
namespace {

// Register tile: an MR x 2NR accumulator block over two adjacent NR-wide
// packed B micro-panels. A micro-panel row is 128 bytes at either
// precision (16 doubles or 32 floats): two AVX-512 vectors (four AVX2/NEON
// vectors) per row, so with MR = 4 each instance keeps 16 vector
// accumulators — enough independent FMA chains to hide FMA latency while
// keeping 16 FMAs per 8 load micro-ops in the inner step — and a forward
// over a few rows pads at most 3 of them.
constexpr std::size_t MR = 4;
template <typename T>
constexpr std::size_t NR = 128 / sizeof(T);
// Cache blocking: the packed A block (MC x KC doubles = 192 KiB) targets
// L2; one A micro-panel plus two B micro-panels (MR x KC + KC x 2NR =
// 54 KiB) cycle through L1 and L2 inside the micro-kernel loop. The float
// instance takes the whole inner dimension as its one Kc panel, so each
// output is a single k-ordered sum (the MLP's inner dimensions, <= 512,
// keep its packed A band within L2).
constexpr std::size_t MC = 128;
template <typename T>
constexpr std::size_t KC =
    std::is_same_v<T, double> ? 192 : std::numeric_limits<std::size_t>::max();
constexpr std::size_t NC = 4096;
static_assert(MC % MR == 0);
// Only the last Nc block pads its columns.
static_assert(NC % NR<double> == 0 && NC % NR<float> == 0);

/// Pack op(A) rows [i0, i0+mc) x cols [p0, p0+kc) into contiguous MR x kc
/// micro-panels (column-of-the-panel major), zero-padding the row
/// remainder so the micro-kernel never branches on edges. Packing absorbs
/// the transposed layout: when `trans`, A is stored (k x m).
template <typename T>
void pack_a(const T* a, std::size_t lda, bool trans, std::size_t i0,
            std::size_t mc, std::size_t p0, std::size_t kc, T* dst) {
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t mr = std::min(MR, mc - ir);
    if (trans) {
      for (std::size_t l = 0; l < kc; ++l) {
        const T* src = a + (p0 + l) * lda + i0 + ir;
        for (std::size_t i = 0; i < mr; ++i) dst[l * MR + i] = src[i];
        for (std::size_t i = mr; i < MR; ++i) dst[l * MR + i] = T(0);
      }
    } else {
      for (std::size_t i = 0; i < mr; ++i) {
        const T* src = a + (i0 + ir + i) * lda + p0;
        for (std::size_t l = 0; l < kc; ++l) dst[l * MR + i] = src[l];
      }
      for (std::size_t i = mr; i < MR; ++i) {
        for (std::size_t l = 0; l < kc; ++l) dst[l * MR + i] = T(0);
      }
    }
    dst += kc * MR;
  }
}

/// Pack op(B) rows [p0, p0+kc) x cols [j0, j0+nc) into contiguous kc x NR
/// micro-panels, zero-padding the column remainder. When `trans`, B is
/// stored (n x k). B is read through memcpy, so it need not be aligned.
template <typename T>
void pack_b(const unsigned char* b, std::size_t ldb, bool trans,
            std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
            T* dst) {
  constexpr std::size_t D = sizeof(T);
  constexpr std::size_t N = NR<T>;
  for (std::size_t jr = 0; jr < nc; jr += N) {
    const std::size_t nr = std::min(N, nc - jr);
    if (trans) {
      for (std::size_t j = 0; j < nr; ++j) {
        const unsigned char* src = b + ((j0 + jr + j) * ldb + p0) * D;
        for (std::size_t l = 0; l < kc; ++l) {
          std::memcpy(dst + l * N + j, src + l * D, D);
        }
      }
      for (std::size_t j = nr; j < N; ++j) {
        for (std::size_t l = 0; l < kc; ++l) dst[l * N + j] = T(0);
      }
    } else {
      for (std::size_t l = 0; l < kc; ++l) {
        const unsigned char* src = b + ((p0 + l) * ldb + j0 + jr) * D;
        if (nr == N) {
          std::memcpy(dst + l * N, src, N * D);  // fixed size: inlined
          continue;
        }
        std::memcpy(dst + l * N, src, nr * D);
        for (std::size_t j = nr; j < N; ++j) dst[l * N + j] = T(0);
      }
    }
    dst += kc * N;
  }
}

/// MR x (P * NR) register-tile accumulation over one packed A micro-panel
/// and P (1 or 2) adjacent packed B micro-panels. The per-element k order
/// matches the naive kernels; partial sums are re-associated only at
/// Kc-panel boundaries (write_tile's accumulate), keeping the blocked path
/// within a few ulps of the reference.
template <typename T, std::size_t P>
[[gnu::always_inline]] inline void micro_kernel(std::size_t kc,
                                                const T* __restrict ap,
                                                const T* __restrict bp,
                                                T* __restrict acc) {
  constexpr std::size_t N = NR<T>;
  constexpr std::size_t W = P * N;
  const std::size_t panel = kc * N;
  for (std::size_t l = 0; l < kc; ++l) {
    const T* a = ap + l * MR;
    const T* b = bp + l * N;
#pragma GCC unroll 4
    for (std::size_t i = 0; i < MR; ++i) {
      const T av = a[i];
#pragma GCC unroll 2
      for (std::size_t q = 0; q < P; ++q) {
#pragma omp simd
        for (std::size_t j = 0; j < N; ++j) {
          acc[i * W + q * N + j] += av * b[q * panel + j];
        }
      }
    }
  }
}

/// Write rows [0, mr) x columns [0, nr) of an accumulated MR x (P * NR)
/// tile back to C, applying the optional epilogue. `accumulate` adds to the
/// partial sums from earlier Kc panels; `bias` (pre-offset to this tile's
/// first column) and `relu` fire only on the final panel. It is always
/// inlined into its tile, with a compile-time row stride for `acc` and the
/// flags as plain arguments: under GCC 12, passing a tile's arguments in a
/// struct made BM_FusedDense/8192 (bias + ReLU on every tile) 1.85x slower.
template <typename T, std::size_t P>
[[gnu::always_inline]] inline void write_tile(const T* acc, T* c,
                                              std::size_t ldc, std::size_t mr,
                                              std::size_t nr, bool accumulate,
                                              const T* bias, bool relu) {
  constexpr std::size_t W = P * NR<T>;
  if (mr == MR && nr == W && !accumulate && !bias && !relu) {
    // Full-tile overwrite fast path (the common case of a single Kc panel).
    for (std::size_t i = 0; i < MR; ++i) {
      T* crow = c + i * ldc;
#pragma omp simd
      for (std::size_t j = 0; j < W; ++j) crow[j] = acc[i * W + j];
    }
    return;
  }
  for (std::size_t i = 0; i < mr; ++i) {
    T* crow = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      T v = acc[i * W + j];
      if (accumulate) v += crow[j];
      if (bias) v += bias[j];
      if (relu && v < T(0)) v = T(0);
      crow[j] = v;
    }
  }
}

constexpr std::size_t round_up(std::size_t v, std::size_t step) {
  return (v + step - 1) / step * step;
}

/// One register tile: accumulate the packed A micro-panel `ap` against the
/// P packed B micro-panels from `bp` on, then write rows [0, mr) x columns
/// [0, nr) of the product to `c`.
template <typename T, std::size_t P>
[[gnu::always_inline]] inline void multiply_tile(
    std::size_t mr, std::size_t nr, std::size_t kc, const T* ap, const T* bp,
    T* c, std::size_t ldc, bool accumulate, const T* bias, bool relu) {
  alignas(64) T acc[MR * P * NR<T>] = {};
  micro_kernel<T, P>(kc, ap, bp, acc);
  write_tile<T, P>(acc, c, ldc, mr, nr, accumulate, bias, relu);
}

/// One MC-row band of one (Nc, Kc) block: pack the band's rows of op(A),
/// then run the register tiles over every pair of packed B micro-panels
/// (a block with an odd number of micro-panels runs its last one alone).
/// `c` and `bias` are pre-offset to the block's first column;
/// `bias`/`relu` are set only on the block's last Kc panel.
template <typename T>
void multiply_band(std::size_t ic, std::size_t m, std::size_t nc,
                   std::size_t pc, std::size_t kc, const T* a,
                   std::size_t lda, bool a_trans, const T* bpanel, T* apack,
                   T* c, std::size_t ldc, bool first, const T* bias,
                   bool relu) {
  constexpr std::size_t N = NR<T>;
  const std::size_t mc = std::min(MC, m - ic);
  pack_a(a, lda, a_trans, ic, mc, pc, kc, apack);
  for (std::size_t jr = 0; jr < nc; jr += 2 * N) {
    const std::size_t nr = std::min(2 * N, nc - jr);
    const T* bp = bpanel + (jr / N) * kc * N;
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const T* ap = apack + (ir / MR) * kc * MR;
      T* ct = c + (ic + ir) * ldc + jr;
      const T* bt = bias ? bias + jr : nullptr;
      if (nr > N) {
        multiply_tile<T, 2>(mr, nr, kc, ap, bp, ct, ldc, !first, bt, relu);
      } else {
        multiply_tile<T, 1>(mr, nr, kc, ap, bp, ct, ldc, !first, bt, relu);
      }
    }
  }
}

/// The one loop over packed B blocks, shared by the fresh path (which
/// packs each block as it goes) and the served path (whose blocks were
/// packed once): for every (Nc, Kc) block, jc then pc, `panel(jc, nc, pc,
/// kc)` yields the block as kc x NR micro-panels and each MC-row band of C
/// accumulates its product. Bands split across the OpenMP team only when
/// there are two or more of them and the product is large enough to pay
/// for the fork; a lone band would leave every other thread at the barrier.
template <typename T, typename Panel>
void gemm_loop(std::size_t m, std::size_t n, std::size_t k, const T* a,
               std::size_t lda, bool a_trans, Panel panel, T* c,
               std::size_t ldc, const T* bias, bool relu) {
  // Every dense forward/backward and every packed forward funnels through
  // here, so these two counters cover the models' entire multiply-add
  // volume.
  VF_OBS_COUNT("nn.gemm.calls", 1);
  VF_OBS_COUNT("nn.gemm.flops", 2 * m * n * k);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Degenerate inner dimension: the product is all zeros + epilogue.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        T v = bias ? bias[j] : T(0);
        if (relu && v < T(0)) v = T(0);
        c[i * ldc + j] = v;
      }
    }
    return;
  }
  const auto ic_blocks = static_cast<std::int64_t>((m + MC - 1) / MC);
  const bool threads = vf::util::thread_count() > 1 && ic_blocks > 1 &&
                       m * n * k >= kParallelWork;
  // The packed A band holds the rows present, not a full MC block: a
  // served micro-batch of a few rows packs (and allocates) a few rows.
  const std::size_t apack_size =
      round_up(std::min(MC, m), MR) * std::min(KC<T>, k);
  auto serial_apack =
      vf::util::make_uninit_buffer<T>(threads ? 0 : apack_size);

  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k;) {
      const std::size_t kc = std::min(KC<T>, k - pc);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      const T* bp = panel(jc, nc, pc, kc);
      const T* block_bias = last && bias ? bias + jc : nullptr;
      const bool block_relu = last && relu;
      if (!threads) {
        for (std::size_t ic = 0; ic < m; ic += MC) {
          multiply_band(ic, m, nc, pc, kc, a, lda, a_trans, bp,
                        serial_apack.get(), c + jc, ldc, first, block_bias,
                        block_relu);
        }
      } else {
        // vf-par: per-thread-scratch — apack is thread-local; each
        // ic-block writes a disjoint row band of C; the B block is
        // read-only here.
#pragma omp parallel
        {
          auto apack = vf::util::make_uninit_buffer<T>(apack_size);
#pragma omp for schedule(static)
          for (std::int64_t icb = 0; icb < ic_blocks; ++icb) {
            multiply_band(static_cast<std::size_t>(icb) * MC, m, nc, pc, kc,
                          a, lda, a_trans, bp, apack.get(), c + jc, ldc,
                          first, block_bias, block_relu);
          }
        }
      }
      pc += kc;
    }
  }
}

}  // namespace

template <typename T>
std::size_t packed_b_size(std::size_t k, std::size_t n) {
  return k * round_up(n, NR<T>);
}

template <typename T>
void pack_b_panels(std::size_t k, std::size_t n, const void* b, T* dst) {
  const auto* bytes = static_cast<const unsigned char*>(b);
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k;) {
      const std::size_t kc = std::min(KC<T>, k - pc);
      pack_b(bytes, n, false, pc, kc, jc, nc,
             dst + jc * k + pc * round_up(nc, NR<T>));
      pc += kc;
    }
  }
}

template <typename T>
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, const T* a,
                 std::size_t lda, const T* bpanels, T* c, std::size_t ldc,
                 const T* bias, bool relu) {
  VF_REQUIRE(lda >= k, "gemm_packed: lda below logical row");
  VF_REQUIRE(ldc >= n, "gemm_packed: ldc below output row");
  gemm_loop(
      m, n, k, a, lda, false,
      [&](std::size_t jc, std::size_t nc, std::size_t pc, std::size_t) {
        return bpanels + jc * k + pc * round_up(nc, NR<T>);
      },
      c, ldc, bias, relu);
}

template std::size_t packed_b_size<double>(std::size_t, std::size_t);
template std::size_t packed_b_size<float>(std::size_t, std::size_t);
template void pack_b_panels(std::size_t, std::size_t, const void*, double*);
template void pack_b_panels(std::size_t, std::size_t, const void*, float*);
template void gemm_packed(std::size_t, std::size_t, std::size_t,
                          const double*, std::size_t, const double*, double*,
                          std::size_t, const double*, bool);
template void gemm_packed(std::size_t, std::size_t, std::size_t, const float*,
                          std::size_t, const float*, float*, std::size_t,
                          const float*, bool);

void gemm_blocked(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, bool a_trans,
                  const double* b, std::size_t ldb, bool b_trans, double* c,
                  std::size_t ldc, const double* bias, bool relu) {
  // Leading dimensions are row strides of the *stored* operands: op(A) is
  // (m x k) but A is stored (k x m) when transposed, and likewise for B.
  VF_REQUIRE(lda >= (a_trans ? m : k), "gemm_blocked: lda below logical row");
  VF_REQUIRE(ldb >= (b_trans ? k : n), "gemm_blocked: ldb below logical row");
  VF_REQUIRE(ldc >= n, "gemm_blocked: ldc below output row");
  // Pack each block of B as the loop reaches it, into one block-sized
  // buffer: op(B) may be a large training operand, never packed whole.
  auto bpack = vf::util::make_uninit_buffer<double>(
      round_up(std::min(NC, n), NR<double>) * std::min(KC<double>, k));
  const auto* bytes = reinterpret_cast<const unsigned char*>(b);
  gemm_loop(
      m, n, k, a, lda, a_trans,
      [&](std::size_t jc, std::size_t nc, std::size_t pc, std::size_t kc) {
        pack_b(bytes, ldb, b_trans, pc, kc, jc, nc, bpack.get());
        return static_cast<const double*>(bpack.get());
      },
      c, ldc, bias, relu);
}

}  // namespace detail

void fused_dense_forward(const Matrix& input, const Matrix& weights,
                         const Matrix& bias, bool relu, Matrix& out) {
  check(input.cols() == weights.rows(),
        "fused_dense_forward: inner dims mismatch");
  check(bias.rows() == 1 && bias.cols() == weights.cols(),
        "fused_dense_forward: bias shape mismatch");
  check(&input != &out, "fused_dense_forward: out must not alias input");
  out.resize(input.rows(), weights.cols());
  detail::gemm_blocked(input.rows(), weights.cols(), input.cols(),
                       input.data().data(), input.cols(), false,
                       weights.data().data(), weights.cols(), false,
                       out.data().data(), out.cols(), bias.row(0), relu);
}

// ---------------------------------------------------------------------------
// Naive reference kernels: the pre-kernel-layer implementations, kept
// verbatim (plus the explicit zeroing the new resize() semantics require)
// so the equivalence tests always have an independent baseline.

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.cols() == b.rows(), "gemm: inner dims mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  out.resize(m, n);
  out.set_zero();
  auto body = [&](std::int64_t ri) {
    auto r = static_cast<std::size_t>(ri);
    double* orow = out.row(r);
    const double* arow = a.row(r);
    for (std::size_t kk = 0; kk < k; ++kk) {
      double av = arow[kk];
      if (av == 0.0) continue;
      const double* brow = b.row(kk);
      for (std::size_t c = 0; c < n; ++c) orow[c] += av * brow[c];
    }
  };
  vf::util::parallel_for(
      0, static_cast<std::int64_t>(m), body,
      m * k * n < kParallelWork ? static_cast<std::int64_t>(m + 1) : 1);
}

void gemm_at_b_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.rows() == b.rows(), "gemm_at_b: outer dims mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  out.resize(m, n);
  out.set_zero();
  // out(m,n) = sum_k a(k,m) * b(k,n). Iterate k outermost so both inputs
  // are read row-contiguously; `out` (m*n, typically the weight-gradient
  // shape) stays cache-resident across the k accumulation.
  if (static_cast<std::size_t>(vf::util::thread_count()) > 1 &&
      m * k * n >= kParallelWork) {
    // Parallel: split output rows; each thread scans its slice of a's rows.
    // vf-par: disjoint-writes — iteration ri writes only out.row(ri).
#pragma omp parallel for schedule(static)
    for (std::int64_t ri = 0; ri < static_cast<std::int64_t>(m); ++ri) {
      auto r = static_cast<std::size_t>(ri);
      double* orow = out.row(r);
      for (std::size_t kk = 0; kk < k; ++kk) {
        double av = a(kk, r);
        if (av == 0.0) continue;
        const double* brow = b.row(kk);
        for (std::size_t c = 0; c < n; ++c) orow[c] += av * brow[c];
      }
    }
    return;
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* arow = a.row(kk);
    const double* brow = b.row(kk);
    for (std::size_t r = 0; r < m; ++r) {
      double av = arow[r];
      if (av == 0.0) continue;
      double* orow = out.row(r);
      for (std::size_t c = 0; c < n; ++c) orow[c] += av * brow[c];
    }
  }
}

void gemm_a_bt_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.cols() == b.cols(), "gemm_a_bt: inner dims mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  out.resize(m, n);
  out.set_zero();
  // Process four output columns per pass: one read of a's row feeds four
  // independent accumulation chains (better ILP than a single dot product).
  auto body = [&](std::int64_t ri) {
    auto r = static_cast<std::size_t>(ri);
    double* orow = out.row(r);
    const double* arow = a.row(r);
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4) {
      const double* b0 = b.row(c);
      const double* b1 = b.row(c + 1);
      const double* b2 = b.row(c + 2);
      const double* b3 = b.row(c + 3);
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        double av = arow[kk];
        acc0 += av * b0[kk];
        acc1 += av * b1[kk];
        acc2 += av * b2[kk];
        acc3 += av * b3[kk];
      }
      orow[c] = acc0;
      orow[c + 1] = acc1;
      orow[c + 2] = acc2;
      orow[c + 3] = acc3;
    }
    for (; c < n; ++c) {
      const double* brow = b.row(c);
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[c] = acc;
    }
  };
  vf::util::parallel_for(
      0, static_cast<std::int64_t>(m), body,
      m * k * n < kParallelWork ? static_cast<std::int64_t>(m + 1) : 1);
}

}  // namespace vf::nn
