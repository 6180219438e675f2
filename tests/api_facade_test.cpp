// vf::api::Reconstructor — the unified reconstruction facade. Method
// naming, Auto resolution, grid-mode parity with the classical engines,
// point mode, and the one-shot request form. FCNN equivalence across the
// grid, point and serve paths is tested in core_batch_reconstruct_test.

#include <gtest/gtest.h>

#include <cmath>

#include "vf/api/reconstruct.hpp"
#include "vf/interp/reconstructor.hpp"
#include "vf/sampling/samplers.hpp"

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
                   Method::Rbf, Method::Kriging}) {
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

}  // namespace
