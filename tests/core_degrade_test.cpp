// Graceful-degradation reconstruction: sample scrubbing, per-point fallback
// for non-finite network outputs, wholesale classical fallback for rotten
// model files, and the ReconstructReport accounting of every such decision.
// The acceptance claim under test: a cloud with ~1% non-finite samples and a
// missing/corrupt model still reconstructs without throwing, finite
// everywhere, with the degradation visible in the report.

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "vf/core/fcnn.hpp"
#include "vf/core/resilient.hpp"
#include "vf/interp/methods.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/spatial/kdtree.hpp"

namespace {

namespace fs = std::filesystem;
using vf::core::FallbackReason;
using vf::core::FcnnModel;
using vf::core::ReconstructReport;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::sampling::SampleCloud;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

ScalarField make_truth() {
  UniformGrid3 grid({12, 12, 4}, {0, 0, 0}, {0.1, 0.1, 0.25});
  ScalarField f(grid, "truth");
  f.fill([](const Vec3& p) {
    return std::sin(4.0 * p.x) * std::cos(3.0 * p.y) + 0.5 * p.z;
  });
  return f;
}

vf::core::FcnnConfig tiny_config() {
  vf::core::FcnnConfig cfg;
  cfg.hidden = {8};
  cfg.epochs = 3;
  cfg.batch_size = 128;
  cfg.train_fractions = {0.05, 0.1};
  cfg.max_train_rows = 400;
  cfg.seed = 7;
  return cfg;
}

/// One small model trained once and shared (clone per test) — pretraining is
/// cheap at this scale but not free under the sanitizers.
const FcnnModel& trained_model() {
  static const FcnnModel model = [] {
    const auto truth = make_truth();
    const vf::sampling::RandomSampler sampler;
    return vf::core::pretrain(truth, sampler, tiny_config()).model;
  }();
  return model;
}

SampleCloud sampled_cloud(const ScalarField& truth) {
  const vf::sampling::RandomSampler sampler;
  return sampler.sample(truth, 0.15, /*seed=*/3);
}

bool all_finite(const ScalarField& f) {
  for (std::int64_t i = 0; i < f.size(); ++i) {
    if (!std::isfinite(f[i])) return false;
  }
  return true;
}

class DegradeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vf_degrade_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---- SampleCloud::scrubbed ------------------------------------------------

TEST_F(DegradeTest, ScrubDropsNonFiniteAndDuplicates) {
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0},
                           {4, 0, 0}, {0, 0, 0}, {5, kInf, 0}};
  std::vector<double> vals = {10, 11, kNaN, 13, 14, 99, 16};
  const SampleCloud raw(std::move(pts), std::move(vals));

  std::size_t nf = 0, dup = 0;
  const SampleCloud clean = raw.scrubbed(nf, dup);
  EXPECT_EQ(nf, 2u);   // NaN value at index 2, Inf coordinate at index 6
  EXPECT_EQ(dup, 1u);  // second (0,0,0)
  ASSERT_EQ(clean.size(), 4u);
  // First occurrence wins the duplicate slot.
  EXPECT_EQ(clean.points()[0], (Vec3{0, 0, 0}));
  EXPECT_EQ(clean.values()[0], 10.0);
}

TEST_F(DegradeTest, ScrubIsANoOpOnCleanClouds) {
  const auto truth = make_truth();
  const auto cloud = sampled_cloud(truth);
  std::size_t nf = 0, dup = 0;
  const auto clean = cloud.scrubbed(nf, dup);
  EXPECT_EQ(nf, 0u);
  EXPECT_EQ(dup, 0u);
  EXPECT_EQ(clean.size(), cloud.size());
  EXPECT_TRUE(clean.has_grid());
}

TEST_F(DegradeTest, ScrubPreservesGridMappingForSurvivors) {
  auto truth = make_truth();
  auto cloud = sampled_cloud(truth);
  const auto kept = cloud.kept_indices();
  ASSERT_GE(kept.size(), 4u);

  // Poison the stored values at two sampled locations and rebuild.
  truth[kept[1]] = kNaN;
  truth[kept[3]] = kInf;
  const SampleCloud poisoned(truth, kept);

  std::size_t nf = 0, dup = 0;
  const auto clean = poisoned.scrubbed(nf, dup);
  EXPECT_EQ(nf, 2u);
  EXPECT_EQ(dup, 0u);
  ASSERT_TRUE(clean.has_grid());
  EXPECT_EQ(clean.grid(), truth.grid());
  EXPECT_EQ(clean.size(), kept.size() - 2);
  // The poisoned locations became voids.
  for (const auto idx : clean.kept_indices()) {
    EXPECT_NE(idx, kept[1]);
    EXPECT_NE(idx, kept[3]);
  }
}

// ---- FcnnReconstructor degradation ----------------------------------------

TEST_F(DegradeTest, FcnnReconstructorScrubsRottenSamples) {
  auto truth = make_truth();
  const auto reference = sampled_cloud(truth);
  const auto kept = reference.kept_indices();
  const std::size_t poisoned_count = 3;
  for (std::size_t i = 0; i < poisoned_count; ++i) {
    truth[kept[5 * i]] = kNaN;  // ~1% of samples turn non-finite
  }
  truth[kept[11]] = -kInf;
  const SampleCloud cloud(truth, kept);

  // Small tiles: the scrubbed cloud serves many tiles.
  vf::core::FcnnReconstructor rec(
      trained_model().clone(), vf::core::ReconstructOptions{.tile_size = 64});
  ReconstructReport report;
  const auto out = rec.reconstruct(cloud, truth.grid(), report);

  EXPECT_TRUE(all_finite(out));
  EXPECT_EQ(report.input_points, cloud.size());
  EXPECT_EQ(report.scrubbed_nonfinite, poisoned_count + 1);
  EXPECT_EQ(report.scrubbed_duplicates, 0u);
  EXPECT_EQ(report.degraded_points, 0u);  // the network itself is healthy
  EXPECT_FALSE(report.clean());
  // Surviving samples stay pinned to their stored values.
  for (std::size_t i = poisoned_count; i < kept.size(); i += 7) {
    if (std::isfinite(truth[kept[i]])) {
      EXPECT_EQ(out[kept[i]], truth[kept[i]]);
    }
  }
  // Every location is accounted for: pinned + predicted + degraded.
  const std::size_t pinned = kept.size() - poisoned_count - 1;
  EXPECT_EQ(pinned + report.predicted_points + report.degraded_points,
            static_cast<std::size_t>(truth.grid().point_count()));
}

TEST_F(DegradeTest, FcnnReconstructorRepairsNonFiniteOutputs) {
  const auto truth = make_truth();
  const auto cloud = sampled_cloud(truth);

  // Poison the scalar output de-normalisation: every network prediction
  // becomes NaN, so every void must be repaired from the samples.
  auto broken = trained_model().clone();
  broken.out_norm.stddev[0] = kNaN;
  vf::core::FcnnReconstructor rec(
      std::move(broken), vf::core::ReconstructOptions{.tile_size = 64});

  ReconstructReport report;
  const auto out = rec.reconstruct(cloud, truth.grid(), report);

  EXPECT_TRUE(all_finite(out));
  EXPECT_EQ(report.fallback, FallbackReason::NonFiniteOutput);
  EXPECT_EQ(report.predicted_points, 0u);
  EXPECT_EQ(report.degraded_points,
            static_cast<std::size_t>(truth.grid().point_count()) -
                cloud.size());
  // Sampled points are pinned, not predicted, so they survive untouched.
  for (std::size_t i = 0; i < cloud.size(); i += 9) {
    EXPECT_EQ(out[cloud.kept_indices()[i]], cloud.values()[i]);
  }
}

TEST_F(DegradeTest, FcnnReconstructorRejectsCloudScrubbedBelowStencil) {
  // 6 samples of which 3 rot away: fewer survivors than the 5-neighbour
  // feature stencil is an invalid argument at this API level (the resilient
  // wrapper degrades instead).
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {2, 0, 0},
                           {3, 0, 0}, {4, 0, 0}, {5, 0, 0}};
  std::vector<double> vals = {1, kNaN, 3, kNaN, 5, kNaN};
  const SampleCloud cloud(std::move(pts), std::move(vals));

  vf::core::FcnnReconstructor rec(trained_model().clone());
  ReconstructReport report;
  EXPECT_THROW(
      (void)rec.reconstruct(cloud, UniformGrid3({4, 2, 1}, {0, 0, 0}, {1, 1, 1}),
                            report),
      std::invalid_argument);
}

// ---- reconstruct_resilient ------------------------------------------------

TEST_F(DegradeTest, ResilientCleanPathReportsClean) {
  const auto truth = make_truth();
  const auto cloud = sampled_cloud(truth);
  const auto model_path = path("good.vfmd");
  trained_model().save(model_path);

  ReconstructReport report;
  const auto out = vf::core::reconstruct_resilient(model_path, cloud,
                                                   truth.grid(), report);
  EXPECT_TRUE(all_finite(out));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.fallback, FallbackReason::None);
  EXPECT_EQ(report.input_points, cloud.size());
  EXPECT_EQ(report.predicted_points,
            static_cast<std::size_t>(truth.grid().point_count()) -
                cloud.size());
}

TEST_F(DegradeTest, ResilientSurvivesMissingModel) {
  const auto truth = make_truth();
  const auto cloud = sampled_cloud(truth);

  ReconstructReport report;
  const auto out = vf::core::reconstruct_resilient(
      path("no_such_model.vfmd"), cloud, truth.grid(), report);

  EXPECT_TRUE(all_finite(out));
  EXPECT_EQ(report.fallback, FallbackReason::ModelLoadFailed);
  EXPECT_FALSE(report.detail.empty());
  EXPECT_EQ(report.predicted_points, 0u);
  EXPECT_EQ(report.degraded_points,
            static_cast<std::size_t>(truth.grid().point_count()) -
                cloud.size());
  // Samples still pin their exact values on the matching grid.
  for (std::size_t i = 0; i < cloud.size(); i += 11) {
    EXPECT_EQ(out[cloud.kept_indices()[i]], cloud.values()[i]);
  }
  EXPECT_NE(report.summary().find("degraded"), std::string::npos);
}

TEST_F(DegradeTest, ResilientSurvivesCorruptModelAndRottenSamples) {
  // The acceptance scenario: ~1% non-finite samples AND a corrupt model
  // file. Must complete without throwing, finite everywhere, with both
  // degradations in the report.
  auto truth = make_truth();
  const auto reference = sampled_cloud(truth);
  const auto kept = reference.kept_indices();
  truth[kept[4]] = kNaN;
  const SampleCloud cloud(truth, kept);

  const auto model_path = path("corrupt.vfmd");
  { std::ofstream(model_path, std::ios::binary) << "this is not a model"; }

  ReconstructReport report;
  const auto out =
      vf::core::reconstruct_resilient(model_path, cloud, truth.grid(), report);

  EXPECT_TRUE(all_finite(out));
  EXPECT_EQ(report.fallback, FallbackReason::ModelLoadFailed);
  EXPECT_EQ(report.input_points, cloud.size());
  EXPECT_EQ(report.scrubbed_nonfinite, 1u);
  EXPECT_GT(report.degraded_points, 0u);
  EXPECT_FALSE(report.clean());
}

TEST_F(DegradeTest, ResilientDegradesBelowStencilWithoutModelAttempt) {
  std::vector<Vec3> pts = {{0, 0, 0}, {1.5, 0, 0}, {3, 0, 0}};
  std::vector<double> vals = {1.0, 2.0, 3.0};
  const SampleCloud cloud(std::move(pts), std::move(vals));
  const UniformGrid3 grid({4, 1, 1}, {0, 0, 0}, {1, 1, 1});

  ReconstructReport report;
  const auto out = vf::core::reconstruct_resilient(path("ignored.vfmd"), cloud,
                                                   grid, report);
  EXPECT_TRUE(all_finite(out));
  EXPECT_EQ(report.fallback, FallbackReason::NoUsableSamples);
  EXPECT_EQ(report.degraded_points,
            static_cast<std::size_t>(grid.point_count()));
}

TEST_F(DegradeTest, ResilientHandlesFullyScrubbedCloud) {
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}};
  std::vector<double> vals = {kNaN, kInf};
  const SampleCloud cloud(std::move(pts), std::move(vals));
  const UniformGrid3 grid({3, 3, 1}, {0, 0, 0}, {1, 1, 1});

  ReconstructReport report;
  const auto out =
      vf::core::reconstruct_resilient(path("ignored.vfmd"), cloud, grid, report);
  EXPECT_TRUE(all_finite(out));
  EXPECT_EQ(report.fallback, FallbackReason::NoUsableSamples);
  EXPECT_EQ(report.scrubbed_nonfinite, 2u);
  EXPECT_EQ(report.degraded_points,
            static_cast<std::size_t>(grid.point_count()));
}

TEST_F(DegradeTest, ResilientRejectsInvalidArguments) {
  const auto truth = make_truth();
  ReconstructReport report;
  EXPECT_THROW((void)vf::core::reconstruct_resilient(
                   path("m.vfmd"), SampleCloud{}, truth.grid(), report),
               std::invalid_argument);
  EXPECT_THROW((void)vf::core::reconstruct_resilient(
                   path("m.vfmd"), sampled_cloud(truth), UniformGrid3{}, report),
               std::invalid_argument);
}

TEST_F(DegradeTest, ShepardEstimateIsExactOnSamplePositions) {
  const std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
                                 {0.5, 0.5, 1}};
  const std::vector<double> vals = {1, 2, 3, 4, 5};
  const vf::spatial::KdTree tree(pts);
  std::vector<vf::spatial::Neighbor> nbrs;
  EXPECT_EQ(vf::interp::modified_shepard(tree, vals, {1, 0, 0}, nbrs), 2.0);
  const double mid =
      vf::interp::modified_shepard(tree, vals, {0.5, 0.5, 0}, nbrs);
  EXPECT_TRUE(std::isfinite(mid));
  EXPECT_GE(mid, 1.0);
  EXPECT_LE(mid, 5.0);
}

// ---- report plumbing -----------------------------------------------------

TEST_F(DegradeTest, ReportSummaryNamesEveryDegradation) {
  ReconstructReport r;
  r.input_points = 100;
  r.scrubbed_nonfinite = 2;
  r.scrubbed_duplicates = 1;
  r.predicted_points = 90;
  r.degraded_points = 7;
  r.fallback = FallbackReason::NonFiniteOutput;
  r.detail = "injected";
  const auto s = r.summary();
  EXPECT_NE(s.find("100 samples"), std::string::npos);
  EXPECT_NE(s.find("2 non-finite"), std::string::npos);
  EXPECT_NE(s.find("1 duplicates"), std::string::npos);
  EXPECT_NE(s.find("90 predicted"), std::string::npos);
  EXPECT_NE(s.find("7 degraded"), std::string::npos);
  EXPECT_NE(s.find("non-finite-output"), std::string::npos);
  EXPECT_NE(s.find("injected"), std::string::npos);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(ReconstructReport{}.clean());
}

}  // namespace
