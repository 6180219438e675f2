// The packed inference form: the portable fp16 codec must be bit-exact
// IEEE 754 binary16 with round-to-nearest-even, and QuantizedNetwork must
// reproduce the training forward (Network::forward) bit for bit at
// QuantPolicy::None and stay within each reduced policy's error envelope
// of it (Fp32 ~ fp32 rounding; Fp16/Int8 bounded, finite, and close).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "vf/nn/network.hpp"
#include "vf/nn/quant.hpp"
#include "vf/util/rng.hpp"

namespace {

using vf::nn::fp16_decode;
using vf::nn::fp16_encode;
using vf::nn::Matrix;
using vf::nn::Network;
using vf::nn::QuantizedNetwork;
using vf::nn::QuantPolicy;
using vf::nn::QuantScratch;

TEST(Fp16Codec, EncodesExactValues) {
  EXPECT_EQ(fp16_encode(0.0f), 0x0000u);
  EXPECT_EQ(fp16_encode(-0.0f), 0x8000u);
  EXPECT_EQ(fp16_encode(1.0f), 0x3c00u);
  EXPECT_EQ(fp16_encode(-1.0f), 0xbc00u);
  EXPECT_EQ(fp16_encode(0.5f), 0x3800u);
  EXPECT_EQ(fp16_encode(2.0f), 0x4000u);
  EXPECT_EQ(fp16_encode(65504.0f), 0x7bffu);  // binary16 max finite
  EXPECT_EQ(fp16_encode(6.103515625e-5f), 0x0400u);  // 2^-14 smallest normal
  EXPECT_EQ(fp16_encode(5.960464477539063e-8f), 0x0001u);  // smallest subnormal
}

TEST(Fp16Codec, DecodeInvertsEncodeOnRepresentables) {
  // Every encodable bit pattern must round-trip decode -> encode exactly
  // (NaN payloads excepted).
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = fp16_decode(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(fp16_encode(f), h) << "bit pattern 0x" << std::hex << bits;
  }
}

TEST(Fp16Codec, SaturatesAndPropagatesSpecials) {
  EXPECT_EQ(fp16_encode(1.0e6f), 0x7c00u);   // overflow -> +inf
  EXPECT_EQ(fp16_encode(-1.0e6f), 0xfc00u);  // overflow -> -inf
  EXPECT_EQ(fp16_encode(65520.0f), 0x7c00u);  // rounds past max -> +inf
  EXPECT_EQ(fp16_encode(std::numeric_limits<float>::infinity()), 0x7c00u);
  EXPECT_TRUE(std::isnan(
      fp16_decode(fp16_encode(std::numeric_limits<float>::quiet_NaN()))));
  EXPECT_TRUE(std::isinf(fp16_decode(0x7c00u)));
  // Underflow past the smallest subnormal flushes to (signed) zero.
  EXPECT_EQ(fp16_encode(1.0e-9f), 0x0000u);
  EXPECT_EQ(fp16_encode(-1.0e-9f), 0x8000u);
}

TEST(Fp16Codec, RoundsToNearestEven) {
  // 1 + 1/2048 is exactly halfway between 1.0 and 1 + 1/1024 (one ulp at
  // this scale); RNE picks the even mantissa (1.0 = 0x3c00).
  EXPECT_EQ(fp16_encode(1.0f + 1.0f / 2048.0f), 0x3c00u);
  // 1 + 3/2048 is halfway between 1 + 1/1024 (odd) and 1 + 2/1024 (even).
  EXPECT_EQ(fp16_encode(1.0f + 3.0f / 2048.0f), 0x3c02u);
  // Just above halfway rounds up.
  EXPECT_EQ(fp16_encode(1.00049f), 0x3c01u);
}

TEST(Fp16Codec, RoundTripErrorIsBounded) {
  vf::util::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto f = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float back = fp16_decode(fp16_encode(f));
    // Relative error of one binary16 rounding: <= 2^-11.
    EXPECT_LE(std::abs(back - f), std::abs(f) * 4.8828125e-4f + 1e-7f);
  }
}

Matrix random_features(std::size_t rows, std::size_t cols,
                       std::uint64_t seed) {
  Matrix X(rows, cols);
  vf::util::Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      X(r, c) = rng.uniform(-2.0, 2.0);
    }
  }
  return X;
}

class QuantNetwork : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = Network::mlp(23, {64, 32, 16}, 4, 12345);
    X_ = random_features(257, 23, 99);  // odd row count exercises tails
    net_.clone().forward(X_, want_);
  }

  Network net_;
  Matrix X_;
  Matrix want_;
};

TEST_F(QuantNetwork, Fp32MatchesReferenceWithinFloatRounding) {
  QuantizedNetwork q(net_, QuantPolicy::Fp32);
  EXPECT_EQ(q.policy(), QuantPolicy::Fp32);
  EXPECT_EQ(q.layer_count(), 4u);
  QuantScratch scratch;
  Matrix got;
  q.infer(X_, got, scratch);
  ASSERT_EQ(got.rows(), want_.rows());
  ASSERT_EQ(got.cols(), want_.cols());
  for (std::size_t r = 0; r < got.rows(); ++r) {
    for (std::size_t c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got(r, c), want_(r, c), 1e-4)
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(QuantNetwork, Fp16AndInt8StayWithinPolicyEnvelope) {
  for (QuantPolicy policy : {QuantPolicy::Fp16, QuantPolicy::Int8}) {
    QuantizedNetwork q(net_, policy);
    QuantScratch scratch;
    Matrix got;
    q.infer(X_, got, scratch);
    ASSERT_EQ(got.rows(), want_.rows());
    double err2 = 0.0, ref2 = 0.0;
    for (std::size_t r = 0; r < got.rows(); ++r) {
      for (std::size_t c = 0; c < got.cols(); ++c) {
        ASSERT_TRUE(std::isfinite(got(r, c)));
        const double d = got(r, c) - want_(r, c);
        err2 += d * d;
        ref2 += want_(r, c) * want_(r, c);
      }
    }
    // Relative RMS error bound: loose enough for int8's per-tensor grid,
    // tight enough to catch a broken codec/scale (which lands near 100%).
    EXPECT_LT(std::sqrt(err2 / ref2), 0.05)
        << "policy " << vf::nn::to_string(policy);
  }
}

TEST_F(QuantNetwork, RowBatchingDoesNotChangeResults) {
  // A row's answer must not depend on which other rows share its chunk —
  // the grid engine's tiles and serve's micro-batches rely on it. Batches
  // of 1-5, 8 and 9 rows fill the 4-row register tile in part, whole, and
  // whole then in part.
  for (QuantPolicy policy :
       {QuantPolicy::Fp32, QuantPolicy::Fp16, QuantPolicy::Int8}) {
    QuantizedNetwork q(net_, policy);
    QuantScratch whole_scratch;
    Matrix whole;
    q.infer(X_, whole, whole_scratch);
    for (const std::size_t row_batch : {1, 2, 3, 4, 5, 8, 9, 64}) {
      QuantScratch scratch;
      Matrix got;
      q.infer(X_, got, scratch, row_batch);
      ASSERT_EQ(got.rows(), whole.rows());
      std::size_t differ = 0;
      for (std::size_t i = 0; i < whole.size(); ++i) {
        differ += got.data()[i] != whole.data()[i];
      }
      EXPECT_EQ(differ, 0u) << "policy " << vf::nn::to_string(policy)
                            << ", row batch " << row_batch << ": " << differ
                            << " of " << whole.size()
                            << " outputs change with the row batch";
    }
  }
}

TEST_F(QuantNetwork, ScratchIsReusableAcrossCalls) {
  QuantizedNetwork q(net_, QuantPolicy::Int8);
  QuantScratch scratch;
  Matrix first, second;
  q.infer(X_, first, scratch);
  q.infer(X_, second, scratch);
  for (std::size_t r = 0; r < first.rows(); ++r) {
    for (std::size_t c = 0; c < first.cols(); ++c) {
      EXPECT_DOUBLE_EQ(first(r, c), second(r, c));
    }
  }
  EXPECT_GT(scratch.element_count(), 0u);
}

TEST(QuantNetworkConstruction, RejectsNonePolicyAndReportsMemory) {
  Network net = Network::mlp(8, {16}, 2, 7);
  // None builds the fp64 form; what the packed form rejects is a layer
  // outside a dense/ReLU stack.
  QuantizedNetwork fp64(net, QuantPolicy::None);
  QuantizedNetwork fp32(net, QuantPolicy::Fp32);
  QuantizedNetwork fp16(net, QuantPolicy::Fp16);
  QuantizedNetwork int8(net, QuantPolicy::Int8);
  EXPECT_FALSE(fp64.empty());
  EXPECT_FALSE(fp32.empty());
  Network tanh_net;
  tanh_net.add(std::make_unique<vf::nn::DenseLayer>(8, 4, 1u));
  tanh_net.add(std::make_unique<vf::nn::TanhLayer>());
  EXPECT_THROW((void)QuantizedNetwork(tanh_net, QuantPolicy::None),
               std::invalid_argument);
  // Each form holds every weight at its precision. fp16 and int8 decode to
  // the fp32 panels they compute from once, at build, so they report what
  // fp32 reports.
  const std::size_t params = net.parameter_count();
  EXPECT_GE(fp64.memory_bytes(), params * sizeof(double));
  EXPECT_GE(fp32.memory_bytes(), params * sizeof(float));
  EXPECT_EQ(fp16.memory_bytes(), fp32.memory_bytes());
  EXPECT_EQ(int8.memory_bytes(), fp32.memory_bytes());
}

TEST(QuantNetworkConstruction, RejectsWidthsThatDoNotChain) {
  Network net;
  net.add(std::make_unique<vf::nn::DenseLayer>(8, 16, 1u));
  net.add(std::make_unique<vf::nn::ReluLayer>());
  net.add(std::make_unique<vf::nn::DenseLayer>(12, 2, 2u));
  for (QuantPolicy policy : {QuantPolicy::None, QuantPolicy::Fp32}) {
    EXPECT_THROW((void)QuantizedNetwork(net, policy), std::invalid_argument);
  }
}

TEST(PackedNetwork, Fp64EqualsTrainingForwardBitForBitAtPaperWidths) {
  const Network net = Network::mlp(23, {512, 256, 128, 64, 16}, 4, 31);
  const QuantizedNetwork packed(net, QuantPolicy::None);
  std::vector<std::size_t> row_counts;
  for (std::size_t rows = 1; rows <= 17; ++rows) row_counts.push_back(rows);
  row_counts.push_back(97);
  row_counts.push_back(2048);
  Network reference = net.clone();
  QuantScratch scratch;
  for (const std::size_t rows : row_counts) {
    SCOPED_TRACE(std::to_string(rows) + " rows");
    const Matrix x = random_features(rows, 23, 500 + rows);
    Matrix want;
    Matrix got;
    reference.forward(x, want);
    packed.infer(x, got, scratch);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    ASSERT_EQ(std::memcmp(got.data().data(), want.data().data(),
                          want.size() * sizeof(double)),
              0);
  }
}

TEST(QuantPolicyNames, RoundTrip) {
  using vf::nn::quant_policy_from_name;
  for (QuantPolicy p : {QuantPolicy::None, QuantPolicy::Fp32,
                        QuantPolicy::Fp16, QuantPolicy::Int8}) {
    EXPECT_EQ(quant_policy_from_name(vf::nn::to_string(p)), p);
  }
  EXPECT_THROW((void)quant_policy_from_name("bf16"), std::invalid_argument);
}

}  // namespace
