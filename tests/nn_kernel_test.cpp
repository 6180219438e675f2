// Equivalence suite for the blocked GEMM kernel layer against the retained
// naive reference kernels, the packed-once path against the blocked one,
// plus the fused dense forward and the Matrix storage semantics the
// kernels rely on.
//
// The blocked path keeps the naive per-element k-summation order but
// re-associates partial sums at Kc-panel boundaries, so comparisons use a
// magnitude-scaled tolerance (a few ulps) rather than exact equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "vf/nn/kernels.hpp"
#include "vf/nn/matrix.hpp"
#include "vf/util/rng.hpp"

namespace {

using vf::nn::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  vf::util::Rng rng(seed, 0x6b65726e);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

void expect_close(const Matrix& got, const Matrix& want, double tol = 1e-12) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      double scale = std::max(1.0, std::abs(want(r, c)));
      ASSERT_NEAR(got(r, c), want(r, c), tol * scale)
          << "at (" << r << ", " << c << ")";
    }
  }
}

// (m, n, k) shapes: exact-tile, tile remainders, degenerate 1s, primes, the
// 23-wide feature dimension, tall-skinny batches, multi-Kc-panel depths
// that exercise the accumulate path, and served-batch row counts (1-3 rows
// in one zero-padded 4-row tile, 12 in three whole ones) across several
// 32-column tiles, with and without a lone last micro-panel.
using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;

class GemmEquivalence : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalence,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 1, 7}, Shape{7, 1, 1},
                      Shape{1, 9, 1}, Shape{2, 3, 5}, Shape{8, 16, 192},
                      Shape{9, 17, 193}, Shape{23, 23, 23}, Shape{31, 29, 37},
                      Shape{256, 24, 23}, Shape{1000, 4, 23},
                      Shape{13, 512, 23}, Shape{129, 17, 192},
                      Shape{8, 16, 384}, Shape{40, 50, 450},
                      Shape{1, 512, 23}, Shape{2, 256, 193},
                      Shape{3, 129, 64}, Shape{12, 128, 384}));

TEST_P(GemmEquivalence, GemmMatchesNaive) {
  auto [m, n, k] = GetParam();
  Matrix a = random_matrix(m, k, 11 * m + 13 * n + k);
  Matrix b = random_matrix(k, n, 17 * m + 19 * n + k);
  Matrix want, got;
  vf::nn::gemm_naive(a, b, want);
  vf::nn::gemm(a, b, got);
  expect_close(got, want);
}

TEST_P(GemmEquivalence, GemmAtBMatchesNaive) {
  auto [m, n, k] = GetParam();
  // a is stored (k x m): out = a^T . b.
  Matrix a = random_matrix(k, m, 23 * m + 29 * n + k);
  Matrix b = random_matrix(k, n, 31 * m + 37 * n + k);
  Matrix want, got;
  vf::nn::gemm_at_b_naive(a, b, want);
  vf::nn::gemm_at_b(a, b, got);
  expect_close(got, want);
}

TEST_P(GemmEquivalence, GemmABtMatchesNaive) {
  auto [m, n, k] = GetParam();
  // b is stored (n x k): out = a . b^T.
  Matrix a = random_matrix(m, k, 41 * m + 43 * n + k);
  Matrix b = random_matrix(n, k, 47 * m + 53 * n + k);
  Matrix want, got;
  vf::nn::gemm_a_bt_naive(a, b, want);
  vf::nn::gemm_a_bt(a, b, got);
  expect_close(got, want);
}

TEST(Gemm, DegenerateDims) {
  // k == 0 contracts an empty sum: the output must be all zeros even if the
  // destination held stale values.
  Matrix a(3, 0), b(0, 4);
  Matrix out(3, 4);
  out.fill(7.0);
  vf::nn::gemm(a, b, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], 0.0);
  }
  // m == 0 / n == 0 produce empty outputs without touching memory.
  Matrix e0(0, 5), e1(5, 0), r;
  vf::nn::gemm(e0, random_matrix(5, 3, 1), r);
  EXPECT_EQ(r.rows(), 0u);
  EXPECT_EQ(r.cols(), 3u);
  vf::nn::gemm(random_matrix(4, 5, 2), e1, r);
  EXPECT_EQ(r.rows(), 4u);
  EXPECT_EQ(r.cols(), 0u);
}

TEST(FusedDense, MatchesUnfusedPipeline) {
  const std::size_t m = 37, k = 23, n = 19;
  Matrix x = random_matrix(m, k, 101);
  Matrix w = random_matrix(k, n, 102);
  Matrix bias = random_matrix(1, n, 103);

  Matrix want;
  vf::nn::gemm(x, w, want);
  vf::nn::add_row_vector(want, bias);

  Matrix fused;
  vf::nn::fused_dense_forward(x, w, bias, /*relu=*/false, fused);
  expect_close(fused, want);

  // ReLU variant: clamp the reference, rerun fused.
  for (auto& v : want.data()) v = v > 0.0 ? v : 0.0;
  vf::nn::fused_dense_forward(x, w, bias, /*relu=*/true, fused);
  expect_close(fused, want);
}

TEST(FusedDense, RejectsBadShapesAndAliasing) {
  Matrix x = random_matrix(4, 6, 1);
  Matrix w = random_matrix(6, 3, 2);
  Matrix bias = random_matrix(1, 3, 3);
  Matrix out;
  Matrix bad_w = random_matrix(5, 3, 4);
  EXPECT_THROW(vf::nn::fused_dense_forward(x, bad_w, bias, false, out),
               std::invalid_argument);
  Matrix bad_bias = random_matrix(1, 2, 5);
  EXPECT_THROW(vf::nn::fused_dense_forward(x, w, bad_bias, false, out),
               std::invalid_argument);
  EXPECT_THROW(vf::nn::fused_dense_forward(x, w, bias, false, x),
               std::invalid_argument);
}

// ---- B packed once: the served path ------------------------------------

// gemm_packed runs gemm_blocked's loop over a B that pack_b_panels packed
// ahead, so the two must agree bit for bit. The shapes cross every
// blocking boundary: m the 4-row register tile and the 128-row band, k the
// 192-deep Kc panel, n the 16-wide micro-panel and the 32-wide register
// tile (with and without a lone last micro-panel), and the 4096-wide Nc
// block.
using PackedShape = std::tuple<std::size_t, std::size_t, std::size_t>;

class PackedGemm : public ::testing::TestWithParam<PackedShape> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedGemm,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8, 9, 12, 129),
                       ::testing::Values(23, 191, 192, 193, 512),
                       ::testing::Values(4, 16, 17, 32, 33, 512, 4097)));

TEST_P(PackedGemm, EqualsBlockedBitForBit) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 401 + m);
  const Matrix b = random_matrix(k, n, 402 + k);
  const Matrix bias = random_matrix(1, n, 403 + n);
  std::vector<double> panels(vf::nn::detail::packed_b_size<double>(k, n));
  vf::nn::detail::pack_b_panels(k, n, b.data().data(), panels.data());
  for (const bool with_bias : {false, true}) {
    for (const bool relu : {false, true}) {
      SCOPED_TRACE(std::string(with_bias ? "bias" : "no bias") +
                   (relu ? ", relu" : ""));
      const double* bp = with_bias ? bias.row(0) : nullptr;
      Matrix want(m, n);
      Matrix got(m, n);
      vf::nn::detail::gemm_blocked(m, n, k, a.data().data(), k, false,
                                   b.data().data(), n, false,
                                   want.data().data(), n, bp, relu);
      vf::nn::detail::gemm_packed(m, n, k, a.data().data(), k, panels.data(),
                                  got.data().data(), n, bp, relu);
      ASSERT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            want.size() * sizeof(double)),
                0);
    }
  }
}

// A row's result must not depend on the rows that share its register tile:
// the same rows taken one, two, three and four at a time sit in other rows
// of other tiles, next to zero padding, over the same packed panels.
TEST_P(PackedGemm, EachRowEqualsItselfComputedAlone) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 501 + m);
  const Matrix b = random_matrix(k, n, 502 + k);
  const Matrix bias = random_matrix(1, n, 503 + n);
  std::vector<double> panels(vf::nn::detail::packed_b_size<double>(k, n));
  vf::nn::detail::pack_b_panels(k, n, b.data().data(), panels.data());
  for (const bool with_bias : {false, true}) {
    for (const bool relu : {false, true}) {
      const double* bp = with_bias ? bias.row(0) : nullptr;
      Matrix whole(m, n);
      vf::nn::detail::gemm_packed(m, n, k, a.data().data(), k, panels.data(),
                                  whole.data().data(), n, bp, relu);
      for (const std::size_t rows : {1, 2, 3, 4}) {
        SCOPED_TRACE(std::to_string(rows) + " at a time" +
                     (with_bias ? ", bias" : "") + (relu ? ", relu" : ""));
        Matrix parts(m, n);
        for (std::size_t r = 0; r < m; r += rows) {
          vf::nn::detail::gemm_packed(std::min(rows, m - r), n, k, a.row(r),
                                      k, panels.data(), parts.row(r), n, bp,
                                      relu);
        }
        ASSERT_EQ(std::memcmp(parts.data().data(), whole.data().data(),
                              whole.size() * sizeof(double)),
                  0);
      }
    }
  }
}

TEST(MatrixStorage, ResizeKeepsContentsWhenShapeUnchanged) {
  Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = double(i + 1);
  m.resize(3, 4);  // no-op: same shape
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.data()[i], double(i + 1));
  }
  m.resize(2, 4);  // shape change: zero-filled
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0);
  m.fill(5.0);
  m.set_zero();
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0);
}

TEST(MatrixStorage, DataIs64ByteAligned) {
  for (std::size_t rows : {1u, 7u, 64u}) {
    Matrix m(rows, 23);
    auto addr = reinterpret_cast<std::uintptr_t>(m.data().data());
    EXPECT_EQ(addr % 64, 0u) << rows << " rows";
  }
}

}  // namespace
