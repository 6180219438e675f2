// Bit-level determinism of the parallel reconstruction and kernel paths.
//
// The sparse-reconstruction results are only trustworthy if a field
// reconstructed with N OpenMP threads is *bit-identical* to the 1-thread
// run: every parallel decomposition in the repo (GEMM ic-blocks, the tiled
// FcnnReconstructor, per-row Normalizer, column-chunked sum_rows) is
// designed to keep each double's floating-point accumulation order fixed
// regardless of thread count. These tests pin that contract so a future
// "optimisation" that re-associates sums across threads fails loudly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "vf/core/fcnn.hpp"
#include "vf/core/features.hpp"
#include "vf/nn/matrix.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/parallel.hpp"
#include "vf/util/rng.hpp"

namespace {

using namespace vf::core;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::nn::Matrix;
using vf::sampling::ImportanceSampler;
using vf::sampling::SampleCloud;

/// Scoped thread-count override so a failing assertion cannot leak a
/// modified global thread count into later tests.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) : saved_(vf::util::thread_count()) {
    vf::util::set_thread_count(n);
  }
  ~ThreadGuard() { vf::util::set_thread_count(saved_); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;

 private:
  int saved_;
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  vf::util::Rng rng(seed, 0xd173);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(double)));
}

TEST(Determinism, GemmBitIdenticalAcrossThreadCounts) {
  // Big enough to clear the kParallelWork threshold and span several
  // MC x KC panels, so the parallel ic-block path actually engages.
  const Matrix a = random_matrix(300, 200, 1);
  const Matrix b = random_matrix(200, 150, 2);

  Matrix serial, parallel;
  {
    ThreadGuard g(1);
    vf::nn::gemm(a, b, serial);
  }
  {
    ThreadGuard g(4);
    vf::nn::gemm(a, b, parallel);
  }
  expect_bit_identical(serial, parallel);
}

TEST(Determinism, SumRowsAndAxpyBitIdenticalAcrossThreadCounts) {
  const Matrix grad = random_matrix(500, 130, 3);
  Matrix bias1, bias4;
  {
    ThreadGuard g(1);
    vf::nn::sum_rows(grad, bias1);
  }
  {
    ThreadGuard g(4);
    vf::nn::sum_rows(grad, bias4);
  }
  expect_bit_identical(bias1, bias4);

  const Matrix x = random_matrix(220, 80, 4);
  Matrix y1 = random_matrix(220, 80, 5);
  Matrix y4 = y1;
  {
    ThreadGuard g(1);
    vf::nn::axpy(0.37, x, y1);
  }
  {
    ThreadGuard g(4);
    vf::nn::axpy(0.37, x, y4);
  }
  expect_bit_identical(y1, y4);
}

TEST(Determinism, NormalizerBitIdenticalAcrossThreadCounts) {
  Normalizer norm = Normalizer::fit(random_matrix(400, 23, 6));
  Matrix m1 = random_matrix(400, 23, 7);
  Matrix m4 = m1;
  {
    ThreadGuard g(1);
    norm.apply(m1);
    norm.invert(m1);
  }
  {
    ThreadGuard g(4);
    norm.apply(m4);
    norm.invert(m4);
  }
  expect_bit_identical(m1, m4);
}

TEST(Determinism, FcnnReconstructorBitIdenticalAcrossThreadCounts) {
  ScalarField truth(UniformGrid3({16, 16, 6}, {0, 0, 0}, {1, 1, 1}), "t");
  truth.fill([](const Vec3& p) {
    return std::sin(0.4 * p.x) * std::cos(0.3 * p.y) + 0.2 * p.z;
  });

  FcnnConfig cfg;
  cfg.hidden = {16, 8};
  cfg.epochs = 4;
  cfg.max_train_rows = 1500;
  cfg.train_fractions = {0.08};
  ImportanceSampler sampler;
  FcnnModel model = pretrain(truth, sampler, cfg).model;
  SampleCloud cloud = sampler.sample(truth, 0.08, 11);

  ScalarField serial(truth.grid(), "s"), parallel(truth.grid(), "p");
  {
    ThreadGuard g(1);
    FcnnReconstructor r(model.clone(), ReconstructOptions{.tile_size = 97});
    serial = r.reconstruct(cloud, truth.grid());
  }
  {
    ThreadGuard g(4);
    FcnnReconstructor r(model.clone(), ReconstructOptions{.tile_size = 97});
    parallel = r.reconstruct(cloud, truth.grid());
  }
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(0, std::memcmp(serial.values().data(), parallel.values().data(),
                           static_cast<std::size_t>(serial.size()) *
                               sizeof(double)))
      << "tiled reconstruction must not depend on OpenMP thread count";
}

}  // namespace
