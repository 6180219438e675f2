// Cross-cutting property sweeps: invariants that must hold across every
// combination of dataset, sampler, and reconstruction method.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/geometry/delaunay.hpp"
#include "vf/interp/reconstructor.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/rng.hpp"

namespace {

using vf::field::ScalarField;

std::unique_ptr<vf::sampling::Sampler> make_sampler(int kind) {
  switch (kind) {
    case 0: return std::make_unique<vf::sampling::RandomSampler>();
    case 1: return std::make_unique<vf::sampling::StratifiedSampler>();
    default: return std::make_unique<vf::sampling::ImportanceSampler>();
  }
}

// ---- every (dataset x sampler) pair feeds every method something usable --

class DatasetSamplerMethod
    : public ::testing::TestWithParam<
          std::tuple<std::string, int, std::string>> {};

TEST_P(DatasetSamplerMethod, ReconstructionIsFiniteAndInterpolating) {
  auto [dataset, sampler_kind, method] = GetParam();
  auto ds = vf::data::make_dataset(dataset);
  auto truth = ds->generate({14, 14, 8}, ds->timestep_count() / 3.0);
  auto sampler = make_sampler(sampler_kind);
  auto cloud = sampler->sample(truth, 0.08, 17);
  auto rec = vf::interp::make_reconstructor(method)->reconstruct(
      cloud, truth.grid());

  ASSERT_EQ(rec.size(), truth.size());
  for (std::int64_t i = 0; i < rec.size(); ++i) {
    ASSERT_TRUE(std::isfinite(rec[i]))
        << dataset << "/" << sampler_kind << "/" << method;
  }
  // Interpolating methods reproduce the stored values at sample sites.
  // `linear` carries the Delaunay lattice-snap displacement (~2^-16 of the
  // domain), so its tolerance is scaled to the field's value range.
  auto range = truth.stats().max - truth.stats().min;
  double tol = method == "linear" ? 1e-3 * range : 1e-6;
  for (std::size_t s = 0; s < cloud.size(); s += 7) {
    std::int64_t idx = cloud.kept_indices()[s];
    ASSERT_NEAR(rec[idx], truth[idx], tol)
        << dataset << "/" << sampler_kind << "/" << method;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DatasetSamplerMethod,
    ::testing::Combine(
        ::testing::Values("hurricane", "combustion", "ionization"),
        ::testing::Values(0, 1, 2),
        ::testing::Values("linear", "nearest", "shepard")));

// ---- Delaunay structural validity across cloud shapes --------------------

class DelaunayOnSampledClouds
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(DelaunayOnSampledClouds, ValidatesOnRealSamplingPatterns) {
  auto [dataset, fraction] = GetParam();
  auto ds = vf::data::make_dataset(dataset);
  auto truth = ds->generate({20, 16, 10}, 9.0);
  vf::sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, fraction, 31);
  if (cloud.size() < 4) GTEST_SKIP();
  vf::geometry::Delaunay3 dt(cloud.points());
  EXPECT_TRUE(dt.validate(400, 30)) << dataset << " @" << fraction;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DelaunayOnSampledClouds,
    ::testing::Combine(
        ::testing::Values("hurricane", "combustion", "ionization"),
        ::testing::Values(0.002, 0.02, 0.15)));

// ---- SNR dominance of interpolation over constant predictors -------------

TEST(Property, LinearAlwaysBeatsGlobalMeanAtModerateSampling) {
  for (const auto& name : vf::data::dataset_names()) {
    auto ds = vf::data::make_dataset(name);
    auto truth = ds->generate({16, 16, 8}, 12.0);
    vf::sampling::RandomSampler sampler;
    auto cloud = sampler.sample(truth, 0.1, 3);
    auto rec = vf::interp::make_reconstructor("linear")->reconstruct(
        cloud, truth.grid());
    // SNR of the global-mean predictor is 0 dB by construction.
    EXPECT_GT(vf::field::snr_db(truth, rec), 0.0) << name;
  }
}

// ---- metric consistency ---------------------------------------------------

TEST(Property, SnrAndRmseRankReconstructionsConsistently) {
  auto ds = vf::data::make_dataset("hurricane");
  auto truth = ds->generate({16, 16, 8}, 20.0);
  vf::sampling::RandomSampler sampler;
  auto c_sparse = sampler.sample(truth, 0.01, 5);
  auto c_dense = sampler.sample(truth, 0.2, 5);
  auto rec_sparse = vf::interp::make_reconstructor("linear")->reconstruct(
      c_sparse, truth.grid());
  auto rec_dense = vf::interp::make_reconstructor("linear")->reconstruct(
      c_dense, truth.grid());
  // More samples -> lower RMSE AND higher SNR (the two metrics agree).
  EXPECT_LT(vf::field::rmse(truth, rec_dense),
            vf::field::rmse(truth, rec_sparse));
  EXPECT_GT(vf::field::snr_db(truth, rec_dense),
            vf::field::snr_db(truth, rec_sparse));
}

// ---- sampler budget exactness across odd fractions ------------------------

class BudgetExactness : public ::testing::TestWithParam<double> {};

TEST_P(BudgetExactness, AllSamplersHitOddBudgets) {
  auto ds = vf::data::make_dataset("combustion");
  auto truth = ds->generate({13, 17, 7}, 33.0);  // prime-ish dims
  for (int kind = 0; kind < 3; ++kind) {
    auto sampler = make_sampler(kind);
    auto cloud = sampler->sample(truth, GetParam(), 9);
    auto want = static_cast<double>(truth.size()) * GetParam();
    EXPECT_NEAR(static_cast<double>(cloud.size()), want,
                std::max(3.0, want * 0.02))
        << sampler->name() << " @" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BudgetExactness,
                         ::testing::Values(0.0007, 0.013, 0.037, 0.111,
                                           0.333));

}  // namespace
