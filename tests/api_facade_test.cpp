// vf::api::Reconstructor — the unified reconstruction facade. Method
// naming, Auto resolution, grid-mode parity with the classical engines,
// point mode, the one-shot request form, and one classical estimator
// behind every classical answer (grid, point mode, serve, FCNN repair).
// FCNN equivalence across the grid, point and serve paths is tested in
// core_batch_reconstruct_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "vf/api/reconstruct.hpp"
#include "vf/interp/reconstructor.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/serve/router.hpp"

namespace {

using vf::api::Method;
using vf::api::ReconstructOptions;
using vf::api::ReconstructRequest;
using vf::api::Reconstructor;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::sampling::ImportanceSampler;
using vf::sampling::SampleCloud;

ScalarField smooth_truth() {
  ScalarField f(UniformGrid3({16, 16, 8}, {0, 0, 0}, {1, 1, 1}), "t");
  f.fill([](const Vec3& p) {
    return std::sin(0.4 * p.x) * std::cos(0.35 * p.y) + 0.15 * p.z;
  });
  return f;
}

vf::core::FcnnModel tiny_trained_model(const ScalarField& truth) {
  vf::core::FcnnConfig cfg;
  cfg.hidden = {24, 12};
  cfg.epochs = 6;
  cfg.max_train_rows = 2000;
  cfg.train_fractions = {0.05};
  cfg.with_gradients = false;
  ImportanceSampler sampler;
  return vf::core::pretrain(truth, sampler, cfg).model;
}

TEST(ApiMethod, NamesRoundTrip) {
  for (Method m : {Method::Auto, Method::FcnnStream, Method::Nearest,
                   Method::Shepard, Method::Linear, Method::Natural,
                   Method::Rbf}) {
    EXPECT_EQ(vf::api::method_from_name(vf::api::to_string(m)), m);
  }
  EXPECT_THROW((void)vf::api::method_from_name("voodoo"),
               std::invalid_argument);
}

TEST(ApiFacade, AutoResolvesByModelAvailability) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);

  // No model source: Auto degrades to the classical Shepard estimator.
  Reconstructor classical;
  auto r = classical.reconstruct(cloud, truth.grid());
  EXPECT_EQ(r.stats.method, "shepard");

  // With a model: Auto takes the streaming FCNN path.
  auto model = tiny_trained_model(truth);
  ReconstructOptions opts;
  opts.model = &model;
  auto rf = Reconstructor(opts).reconstruct(cloud, truth.grid());
  EXPECT_EQ(rf.stats.method, "fcnn_stream");
}

TEST(ApiFacade, ClassicalGridModeMatchesTheInterpEngine) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);

  ReconstructOptions opts;
  opts.method = Method::Nearest;
  auto got = Reconstructor(opts).reconstruct(cloud, truth.grid());
  auto want = vf::interp::make_interpolator(vf::interp::Method::Nearest)
                  ->reconstruct(cloud, truth.grid());
  ASSERT_EQ(got.field.size(), want.size());
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_DOUBLE_EQ(got.field[i], want[i]) << "at " << i;
  }
  EXPECT_EQ(got.stats.points, static_cast<std::size_t>(truth.size()));
  EXPECT_GE(got.stats.seconds, 0.0);
}

TEST(ApiFacade, PointModePredictsFiniteValuesAndReusesTheBoundCloud) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);
  auto model = tiny_trained_model(truth);

  ReconstructOptions opts;
  opts.method = Method::FcnnStream;
  opts.model = &model;
  Reconstructor rec(opts);

  std::vector<Vec3> queries = {{1.5, 2.5, 3.5}, {7.0, 7.0, 4.0}, {0.2, 0.1, 0.3}};
  auto first = rec.reconstruct_points(cloud, queries);
  ASSERT_EQ(first.values.size(), queries.size());
  for (double v : first.values) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(first.field.values().empty());  // point mode: no grid output
  EXPECT_EQ(first.stats.points, queries.size());

  // Second call with the same cloud reuses the cached tree and must agree.
  auto second = rec.reconstruct_points(cloud, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.values[i], second.values[i]);
  }
}

TEST(ApiFacade, NearestPointModeReturnsTheNearestSampleValue) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);

  ReconstructOptions opts;
  opts.method = Method::Nearest;
  Reconstructor rec(opts);
  // Query exactly at a sample: the estimate is that sample's value.
  std::vector<Vec3> queries = {cloud.points()[0]};
  auto r = rec.reconstruct_points(cloud, queries);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_DOUBLE_EQ(r.values[0], cloud.values()[0]);
  EXPECT_EQ(r.stats.method, "nearest");
}

TEST(ApiFacade, ClassicalPointModeNeedsAUsableSample) {
  // Every sample scrubbed: there is nothing to estimate from.
  const SampleCloud rotten({{0, 0, 0}, {1, 0, 0}},
                           {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()});
  const std::vector<Vec3> queries = {{0.5, 0, 0}};
  for (const Method m : {Method::Shepard, Method::Nearest}) {
    ReconstructOptions opts;
    opts.method = m;
    EXPECT_THROW((void)Reconstructor(opts).reconstruct_points(rotten, queries),
                 std::invalid_argument)
        << vf::api::to_string(m);
  }
}

TEST(ApiFacade, MeshMethodsRejectPointQueries) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);

  ReconstructOptions opts;
  opts.method = Method::Linear;
  Reconstructor rec(opts);
  std::vector<Vec3> queries = {{1, 1, 1}};
  EXPECT_THROW((void)rec.reconstruct_points(cloud, queries),
               std::invalid_argument);
}

TEST(ApiFacade, FcnnWithoutAModelSourceThrows) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);
  ReconstructOptions opts;
  opts.method = Method::FcnnStream;
  Reconstructor rec(opts);
  EXPECT_THROW((void)rec.reconstruct(cloud, truth.grid()),
               std::invalid_argument);
}

TEST(ApiOneShot, MatchesTheStatefulFacade) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);

  ReconstructRequest req;
  req.cloud = &cloud;
  req.grid = &truth.grid();
  req.options.method = Method::Shepard;
  auto one_shot = vf::api::reconstruct(req);

  ReconstructOptions opts;
  opts.method = Method::Shepard;
  auto stateful = Reconstructor(opts).reconstruct(cloud, truth.grid());
  ASSERT_EQ(one_shot.field.size(), stateful.field.size());
  for (std::int64_t i = 0; i < stateful.field.size(); ++i) {
    ASSERT_DOUBLE_EQ(one_shot.field[i], stateful.field[i]);
  }
}

TEST(ApiOneShot, ValidatesTheRequestShape) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);
  std::vector<Vec3> pts = {{1, 1, 1}};

  ReconstructRequest no_cloud;
  no_cloud.points = &pts;
  EXPECT_THROW((void)vf::api::reconstruct(no_cloud), std::invalid_argument);

  ReconstructRequest no_query;
  no_query.cloud = &cloud;
  EXPECT_THROW((void)vf::api::reconstruct(no_query), std::invalid_argument);

  ReconstructRequest both;
  both.cloud = &cloud;
  both.grid = &truth.grid();
  both.points = &pts;
  EXPECT_THROW((void)vf::api::reconstruct(both), std::invalid_argument);
}

TEST(ApiFacade, ResilientModeRequiresAModelPath) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);
  ReconstructOptions opts;
  opts.resilient = true;
  Reconstructor rec(opts);
  EXPECT_THROW((void)rec.reconstruct(cloud, truth.grid()),
               std::invalid_argument);
}

TEST(ApiFacade, ResilientModeDegradesInsteadOfThrowing) {
  auto truth = smooth_truth();
  ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 3);

  ReconstructOptions opts;
  opts.resilient = true;
  opts.model_path = "/nonexistent/model.vfmd";
  auto r = Reconstructor(opts).reconstruct(cloud, truth.grid());
  EXPECT_EQ(r.stats.method, "resilient");
  EXPECT_FALSE(r.report.clean());
  EXPECT_GT(r.report.degraded_points, 0u);
  for (std::int64_t i = 0; i < r.field.size(); ++i) {
    ASSERT_TRUE(std::isfinite(r.field[i]));
  }
}

// ---- one classical estimator ----------------------------------------------
//
// The facade's Shepard grid is the reference: at every void of a clean
// cloud, each other classical answer must equal it bit for bit. Every
// index is the k-d tree, so neighbour order is the same everywhere.

/// The Shepard grid of `cloud` at the grid's void positions.
struct VoidReference {
  std::vector<std::int64_t> voids;
  std::vector<Vec3> positions;
  std::vector<double> values;
};

VoidReference shepard_grid_at_voids(const SampleCloud& cloud,
                                    const UniformGrid3& grid) {
  ReconstructOptions opts;
  opts.method = Method::Shepard;
  const auto field = Reconstructor(opts).reconstruct(cloud, grid).field;
  VoidReference ref;
  ref.voids = cloud.void_indices();
  for (const auto idx : ref.voids) {
    ref.positions.push_back(grid.position(idx));
    ref.values.push_back(field[idx]);
  }
  return ref;
}

/// Count of positions where `got` and `want` differ in any bit.
std::size_t bitwise_differences(const std::vector<double>& got,
                                const std::vector<double>& want) {
  EXPECT_EQ(got.size(), want.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      ++differ;
    }
  }
  return differ;
}

SampleCloud clean_cloud(const ScalarField& truth) {
  return ImportanceSampler().sample(truth, 0.05, 3);
}

TEST(ClassicalEstimator, PointModeShepardEqualsTheShepardGrid) {
  const auto truth = smooth_truth();
  const auto cloud = clean_cloud(truth);
  const auto ref = shepard_grid_at_voids(cloud, truth.grid());
  ASSERT_FALSE(ref.voids.empty());

  ReconstructOptions opts;
  opts.method = Method::Shepard;
  opts.engine.index = vf::spatial::IndexKind::KdTree;
  const auto got = Reconstructor(opts).reconstruct_points(cloud, ref.positions);
  EXPECT_EQ(bitwise_differences(got.values, ref.values), 0u)
      << "of " << ref.values.size() << " void points";
}

TEST(ClassicalEstimator, ClassicalServeSessionEqualsTheShepardGrid) {
  const auto truth = smooth_truth();
  const auto cloud = clean_cloud(truth);
  const auto ref = shepard_grid_at_voids(cloud, truth.grid());

  vf::serve::RouterOptions ropts;
  ropts.shard.index = vf::spatial::IndexKind::KdTree;
  vf::serve::ShardRouter router(ropts);
  router.add_session("classical", cloud, "");  // empty path: classical
  const auto resp = router.query("classical", ref.positions);
  EXPECT_EQ(resp.status, vf::serve::Status::Ok);
  EXPECT_EQ(resp.fallback, "classical");
  EXPECT_EQ(bitwise_differences(resp.values, ref.values), 0u)
      << "of " << ref.values.size() << " void points";
}

TEST(ClassicalEstimator, FcnnRepairEqualsTheShepardGrid) {
  const auto truth = smooth_truth();
  const auto cloud = clean_cloud(truth);
  const auto ref = shepard_grid_at_voids(cloud, truth.grid());

  // A network whose de-normalised output is always NaN: every void point
  // the FCNN engine predicts is repaired.
  vf::core::FcnnModel model;
  model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(vf::core::kFeatureDim), {16, 8},
      static_cast<std::size_t>(vf::core::kTargetDimScalar), 7);
  model.in_norm.mean.assign(vf::core::kFeatureDim, 0.0);
  model.in_norm.stddev.assign(vf::core::kFeatureDim, 1.0);
  model.out_norm.mean.assign(vf::core::kTargetDimScalar, 0.0);
  model.out_norm.stddev.assign(vf::core::kTargetDimScalar,
                               std::numeric_limits<double>::quiet_NaN());
  model.with_gradients = false;
  vf::core::FcnnReconstructor rec(
      std::move(model),
      vf::core::ReconstructOptions{.index = vf::spatial::IndexKind::KdTree});
  vf::core::ReconstructReport report;
  const auto field = rec.reconstruct(cloud, truth.grid(), report);
  EXPECT_EQ(report.degraded_points, ref.voids.size());

  std::vector<double> got;
  got.reserve(ref.voids.size());
  for (const auto idx : ref.voids) got.push_back(field[idx]);
  EXPECT_EQ(bitwise_differences(got, ref.values), 0u)
      << "of " << ref.values.size() << " void points";
}

}  // namespace
