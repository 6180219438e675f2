// Tests for the classical reconstruction methods.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "vf/field/metrics.hpp"
#include "vf/interp/methods.hpp"
#include "vf/interp/reconstructor.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/rng.hpp"

namespace {

using namespace vf::interp;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::sampling::RandomSampler;
using vf::sampling::SampleCloud;

ScalarField smooth_field(vf::field::Dims dims = {20, 20, 10}) {
  ScalarField f(UniformGrid3(dims, {0, 0, 0}, {1, 1, 1}), "smooth");
  f.fill([](const Vec3& p) {
    return std::sin(p.x * 0.3) * std::cos(p.y * 0.25) + 0.05 * p.z;
  });
  return f;
}

ScalarField linear_field(vf::field::Dims dims = {16, 16, 8}) {
  ScalarField f(UniformGrid3(dims, {0, 0, 0}, {1, 1, 1}), "linear");
  f.fill([](const Vec3& p) { return 2 * p.x - 0.5 * p.y + 3 * p.z + 10; });
  return f;
}

TEST(Registry, MakesEveryMethod) {
  for (const auto& name :
       {"nearest", "shepard", "linear", "linear_seq", "linear_naive",
        "natural", "rbf"}) {
    auto r = make_reconstructor(name);
    EXPECT_EQ(r->name(), name);
  }
  EXPECT_THROW(make_reconstructor("bogus"), std::invalid_argument);
}

TEST(Registry, PaperOrderNames) {
  auto names = reconstructor_names();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "linear");
}

TEST(Methods, EmptyCloudThrows) {
  SampleCloud empty(std::vector<Vec3>{}, std::vector<double>{});
  auto grid = UniformGrid3({4, 4, 4}, {0, 0, 0}, {1, 1, 1});
  for (const auto& name : {"nearest", "shepard", "natural", "rbf"}) {
    EXPECT_THROW(make_reconstructor(name)->reconstruct(empty, grid),
                 std::invalid_argument)
        << name;
  }
  EXPECT_THROW(make_reconstructor("linear")->reconstruct(empty, grid),
               std::invalid_argument);
}

// Shared contract over all methods.
class MethodContract : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Reconstructor> method() {
    return make_reconstructor(GetParam());
  }
};

TEST_P(MethodContract, OutputCoversGridAndIsFinite) {
  auto truth = smooth_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);
  auto rec = method()->reconstruct(cloud, truth.grid());
  ASSERT_EQ(rec.size(), truth.size());
  for (std::int64_t i = 0; i < rec.size(); ++i) {
    ASSERT_TRUE(std::isfinite(rec[i])) << GetParam();
  }
}

TEST_P(MethodContract, BetterThanMeanPredictor) {
  // Any sane interpolator beats predicting the global mean everywhere
  // (SNR = 0 dB by definition) on a smooth field at 5% sampling.
  auto truth = smooth_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 7);
  auto rec = method()->reconstruct(cloud, truth.grid());
  EXPECT_GT(vf::field::snr_db(truth, rec), 3.0) << GetParam();
}

TEST_P(MethodContract, QualityImprovesWithSampling) {
  auto truth = smooth_field();
  RandomSampler sampler;
  auto m = method();
  auto snr_at = [&](double frac) {
    auto cloud = sampler.sample(truth, frac, 11);
    return vf::field::snr_db(truth, m->reconstruct(cloud, truth.grid()));
  };
  double lo = snr_at(0.01);
  double hi = snr_at(0.20);
  EXPECT_GT(hi, lo) << GetParam();
}

TEST_P(MethodContract, DeterministicGivenSameCloud) {
  auto truth = smooth_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 13);
  auto m = method();
  auto a = m->reconstruct(cloud, truth.grid());
  auto b = m->reconstruct(cloud, truth.grid());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(All, MethodContract,
                         ::testing::Values("nearest", "shepard", "linear",
                                           "natural", "rbf"));

TEST(Nearest, ExactAtSamplePoints) {
  auto truth = smooth_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.03, 17);
  auto rec = NearestNeighborReconstructor().reconstruct(cloud, truth.grid());
  for (std::int64_t idx : cloud.kept_indices()) {
    ASSERT_DOUBLE_EQ(rec[idx], truth[idx]);
  }
}

TEST(Nearest, PiecewiseConstantFromSamples) {
  // Every reconstructed value must equal SOME sample value.
  auto truth = smooth_field({10, 10, 6});
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 19);
  auto rec = NearestNeighborReconstructor().reconstruct(cloud, truth.grid());
  std::set<double> sample_values(cloud.values().begin(), cloud.values().end());
  for (std::int64_t i = 0; i < rec.size(); ++i) {
    ASSERT_TRUE(sample_values.count(rec[i]));
  }
}

TEST(Shepard, ExactAtSamplePoints) {
  auto truth = smooth_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.03, 23);
  auto rec = ShepardReconstructor().reconstruct(cloud, truth.grid());
  for (std::int64_t idx : cloud.kept_indices()) {
    ASSERT_NEAR(rec[idx], truth[idx], 1e-9);
  }
}

TEST(Shepard, StaysWithinSampleRange) {
  // IDW is a convex combination: output bounded by sample min/max.
  auto truth = smooth_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 29);
  auto rec = ShepardReconstructor().reconstruct(cloud, truth.grid());
  double lo = 1e300, hi = -1e300;
  for (double v : cloud.values()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  for (std::int64_t i = 0; i < rec.size(); ++i) {
    ASSERT_GE(rec[i], lo - 1e-9);
    ASSERT_LE(rec[i], hi + 1e-9);
  }
}

TEST(Linear, ReproducesLinearFieldsInsideHull) {
  auto truth = linear_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.15, 31);
  auto rec = LinearDelaunayReconstructor().reconstruct(cloud, truth.grid());
  // Interior points (hull covers them at 15% sampling): near-exact up to
  // the lattice snap. Check a central sub-block.
  for (int k = 2; k < 6; ++k)
    for (int j = 4; j < 12; ++j)
      for (int i = 4; i < 12; ++i)
        ASSERT_NEAR(rec.at(i, j, k), truth.at(i, j, k), 0.05);
}

TEST(Linear, AllModesAgree) {
  auto truth = smooth_field({12, 12, 6});
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.08, 37);
  auto a = LinearDelaunayReconstructor(LinearDelaunayReconstructor::Mode::Naive)
               .reconstruct(cloud, truth.grid());
  auto b = LinearDelaunayReconstructor(
               LinearDelaunayReconstructor::Mode::Sequential)
               .reconstruct(cloud, truth.grid());
  auto c = LinearDelaunayReconstructor(
               LinearDelaunayReconstructor::Mode::Parallel)
               .reconstruct(cloud, truth.grid());
  // Same triangulation, same interpolation — values agree except at the
  // handful of hull-boundary voxels where different walk paths may settle
  // on "just inside" vs "just outside" (nearest-sample fallback).
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-9 || std::abs(a[i] - c[i]) > 1e-9) {
      ++mismatches;
    }
  }
  EXPECT_LE(mismatches, a.size() / 100);
}

TEST(Linear, BeatsNearestOnSmoothField) {
  auto truth = smooth_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 41);
  double snr_lin = vf::field::snr_db(
      truth, LinearDelaunayReconstructor().reconstruct(cloud, truth.grid()));
  double snr_nn = vf::field::snr_db(
      truth,
      NearestNeighborReconstructor().reconstruct(cloud, truth.grid()));
  EXPECT_GT(snr_lin, snr_nn);
}

TEST(Linear, TooFewSamplesThrows) {
  auto truth = smooth_field({6, 6, 4});
  SampleCloud cloud(truth, {0, 1, 2});  // 3 points < 4
  EXPECT_THROW(
      LinearDelaunayReconstructor().reconstruct(cloud, truth.grid()),
      std::invalid_argument);
}

TEST(Natural, SmootherThanNearest) {
  // Discrete Sibson averages Voronoi neighbours, so its error on a smooth
  // field should be below nearest-neighbour's.
  auto truth = smooth_field();
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.03, 43);
  double rmse_nat = vf::field::rmse(
      truth, NaturalNeighborReconstructor().reconstruct(cloud, truth.grid()));
  double rmse_nn = vf::field::rmse(
      truth,
      NearestNeighborReconstructor().reconstruct(cloud, truth.grid()));
  EXPECT_LT(rmse_nat, rmse_nn);
}

TEST(Rbf, NearExactAtSamplePoints) {
  auto truth = smooth_field({12, 12, 6});
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 47);
  auto rec = RbfReconstructor().reconstruct(cloud, truth.grid());
  for (std::int64_t idx : cloud.kept_indices()) {
    ASSERT_NEAR(rec[idx], truth[idx], 1e-6);
  }
}

TEST(Upscaling, MethodsReconstructOntoFinerGrid) {
  // Sample a coarse field, reconstruct onto a 2x grid (Experiment 3 shape).
  auto truth = smooth_field({12, 12, 6});
  RandomSampler sampler;
  auto cloud = sampler.sample(truth, 0.2, 53);
  UniformGrid3 fine({23, 23, 11}, {0, 0, 0}, {0.5, 0.5, 0.5});
  for (const auto& name : {"nearest", "shepard", "linear", "natural"}) {
    auto rec = make_reconstructor(name)->reconstruct(cloud, fine);
    ASSERT_EQ(rec.size(), fine.point_count()) << name;
    for (std::int64_t i = 0; i < rec.size(); ++i) {
      ASSERT_TRUE(std::isfinite(rec[i])) << name;
    }
  }
}

}  // namespace
