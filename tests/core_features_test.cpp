// Tests for the FCNN feature engineering (23-dim vectors, normalisation,
// training targets).

#include <gtest/gtest.h>

#include <cmath>

#include "vf/core/features.hpp"
#include "vf/field/gradient.hpp"
#include "vf/spatial/brute_force.hpp"
#include "vf/util/rng.hpp"

namespace {

using namespace vf::core;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::nn::Matrix;
using vf::sampling::SampleCloud;

ScalarField test_field() {
  ScalarField f(UniformGrid3({14, 12, 8}, {0, 0, 0}, {1, 1, 1}), "t");
  f.fill([](const Vec3& p) {
    return std::sin(0.4 * p.x) + 0.3 * p.y * p.y - 0.2 * p.z;
  });
  return f;
}

Matrix features_at(const SampleCloud& cloud, const std::vector<Vec3>& points) {
  FeatureRequest req;
  req.cloud = &cloud;
  req.points = &points;
  return extract_features(req);
}

Matrix features_on_grid(const SampleCloud& cloud, const UniformGrid3& grid,
                        const std::vector<std::int64_t>& idx) {
  FeatureRequest req;
  req.cloud = &cloud;
  req.grid = &grid;
  req.indices = &idx;
  return extract_features(req);
}

TEST(Constants, MatchPaperLayout) {
  EXPECT_EQ(kNeighbors, 5);
  EXPECT_EQ(kFeatureDim, 23);
  EXPECT_EQ(kTargetDimGrad, 4);
  EXPECT_EQ(kTargetDimScalar, 1);
}

TEST(Features, LayoutHoldsFiveNearestThenQuery) {
  auto f = test_field();
  // A small deterministic cloud.
  std::vector<std::int64_t> kept;
  for (std::int64_t i = 0; i < f.size(); i += 17) kept.push_back(i);
  SampleCloud cloud(f, kept);

  std::vector<Vec3> queries = {{3.3, 4.4, 2.2}, {10.0, 2.0, 6.0}};
  Matrix X = features_at(cloud, queries);
  ASSERT_EQ(X.rows(), 2u);
  ASSERT_EQ(X.cols(), 23u);

  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto want = vf::spatial::brute_force_knn(cloud.points(), queries[q], 5);
    const double* row = X.row(q);
    for (int j = 0; j < 5; ++j) {
      // Neighbour j occupies columns 4j..4j+3 as (x, y, z, value); distance
      // order must match brute force (ties may resolve to a different but
      // equidistant sample).
      Vec3 p{row[4 * j], row[4 * j + 1], row[4 * j + 2]};
      double d2 = (p - queries[q]).norm2();
      ASSERT_DOUBLE_EQ(d2, want[static_cast<std::size_t>(j)].dist2);
      // The stored (position, value) pair must correspond to a real sample.
      bool found = false;
      for (std::size_t s = 0; s < cloud.size(); ++s) {
        if (cloud.points()[s] == p && cloud.values()[s] == row[4 * j + 3]) {
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "neighbour " << j << " not a sample";
    }
    // Final three columns: the query position itself.
    ASSERT_DOUBLE_EQ(row[20], queries[q].x);
    ASSERT_DOUBLE_EQ(row[21], queries[q].y);
    ASSERT_DOUBLE_EQ(row[22], queries[q].z);
  }
}

TEST(Features, IndexOverloadMatchesPositions) {
  auto f = test_field();
  std::vector<std::int64_t> kept;
  for (std::int64_t i = 0; i < f.size(); i += 11) kept.push_back(i);
  SampleCloud cloud(f, kept);

  std::vector<std::int64_t> idx = {5, 100, 777};
  Matrix a = features_on_grid(cloud, f.grid(), idx);
  std::vector<Vec3> pos;
  for (auto i : idx) pos.push_back(f.grid().position(i));
  Matrix b = features_at(cloud, pos);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Features, TooSmallCloudThrows) {
  auto f = test_field();
  SampleCloud cloud(f, {0, 1, 2});  // 3 < kNeighbors
  EXPECT_THROW(features_at(cloud, {{1, 1, 1}}), std::invalid_argument);
}

TEST(Features, RequestValidatesSourceAndQueryShape) {
  auto f = test_field();
  std::vector<std::int64_t> kept;
  for (std::int64_t i = 0; i < f.size(); i += 11) kept.push_back(i);
  SampleCloud cloud(f, kept);
  std::vector<Vec3> pts = {{1, 1, 1}};
  std::vector<std::int64_t> idx = {5};

  FeatureRequest no_source;
  no_source.points = &pts;
  EXPECT_THROW(extract_features(no_source), std::invalid_argument);

  FeatureRequest no_query;
  no_query.cloud = &cloud;
  EXPECT_THROW(extract_features(no_query), std::invalid_argument);

  FeatureRequest both_queries;
  both_queries.cloud = &cloud;
  both_queries.points = &pts;
  both_queries.grid = &f.grid();
  both_queries.indices = &idx;
  EXPECT_THROW(extract_features(both_queries), std::invalid_argument);
}

TEST(Targets, ScalarOnly) {
  auto f = test_field();
  std::vector<std::int64_t> idx = {0, 7, 42};
  Matrix Y = extract_targets(f, idx, /*with_gradients=*/false);
  ASSERT_EQ(Y.rows(), 3u);
  ASSERT_EQ(Y.cols(), 1u);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    ASSERT_DOUBLE_EQ(Y(i, 0), f[idx[i]]);
  }
}

TEST(Targets, WithGradientsMatchesFiniteDifferences) {
  auto f = test_field();
  std::vector<std::int64_t> idx = {100, 500, 900};
  Matrix Y = extract_targets(f, idx, /*with_gradients=*/true);
  ASSERT_EQ(Y.cols(), 4u);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    auto [gi, gj, gk] = f.grid().ijk(idx[i]);
    auto g = vf::field::gradient_at(f, gi, gj, gk);
    ASSERT_DOUBLE_EQ(Y(i, 0), f[idx[i]]);
    ASSERT_DOUBLE_EQ(Y(i, 1), g[0]);
    ASSERT_DOUBLE_EQ(Y(i, 2), g[1]);
    ASSERT_DOUBLE_EQ(Y(i, 3), g[2]);
  }
}

TEST(Normalizer, FitComputesColumnStats) {
  Matrix m(4, 2);
  m(0, 0) = 1; m(1, 0) = 2; m(2, 0) = 3; m(3, 0) = 4;
  m(0, 1) = 10; m(1, 1) = 10; m(2, 1) = 10; m(3, 1) = 10;
  auto n = Normalizer::fit(m);
  EXPECT_DOUBLE_EQ(n.mean[0], 2.5);
  EXPECT_NEAR(n.stddev[0], std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(n.mean[1], 10.0);
  EXPECT_DOUBLE_EQ(n.stddev[1], 1.0);  // constant column floored to 1
}

TEST(Normalizer, ApplyInvertRoundTrip) {
  vf::util::Rng rng(5);
  Matrix m(50, 7);
  for (auto& v : m.data()) v = rng.uniform(-100, 100);
  auto orig = m;
  auto n = Normalizer::fit(m);
  n.apply(m);
  // After z-scoring, every column has ~zero mean and ~unit variance.
  for (std::size_t c = 0; c < m.cols(); ++c) {
    double mean = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) mean += m(r, c);
    mean /= static_cast<double>(m.rows());
    ASSERT_NEAR(mean, 0.0, 1e-9);
  }
  n.invert(m);
  for (std::size_t i = 0; i < m.size(); ++i) {
    ASSERT_NEAR(m.data()[i], orig.data()[i], 1e-9);
  }
}

TEST(Normalizer, EmptyMatrixThrows) {
  Matrix empty(0, 3);
  EXPECT_THROW(Normalizer::fit(empty), std::invalid_argument);
}

TEST(Normalizer, ColumnMismatchThrows) {
  Matrix m(5, 3);
  auto n = Normalizer::fit(m);
  Matrix other(5, 4);
  EXPECT_THROW(n.apply(other), std::invalid_argument);
  EXPECT_THROW(n.invert(other), std::invalid_argument);
}

TEST(Features, DeterministicAcrossCalls) {
  auto f = test_field();
  std::vector<std::int64_t> kept;
  for (std::int64_t i = 0; i < f.size(); i += 9) kept.push_back(i);
  SampleCloud cloud(f, kept);
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 3; i < f.size(); i += 31) idx.push_back(i);
  Matrix a = features_on_grid(cloud, f.grid(), idx);
  Matrix b = features_on_grid(cloud, f.grid(), idx);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Features, GridHashIndexMatchesKdTree) {
  // The SoA batched path must assemble identical rows whichever
  // NeighborIndex backs the k-NN queries.
  auto f = test_field();
  std::vector<std::int64_t> kept;
  for (std::int64_t i = 0; i < f.size(); i += 7) kept.push_back(i);
  SampleCloud cloud(f, kept);

  std::vector<Vec3> queries;
  vf::util::Rng rng(64);
  for (int i = 0; i < 300; ++i) {
    queries.push_back({rng.uniform(0, 13), rng.uniform(0, 11),
                       rng.uniform(0, 7)});
  }

  auto kd = vf::spatial::build_index(cloud.points(),
                                     vf::spatial::IndexKind::KdTree);
  auto gh = vf::spatial::build_index(cloud.points(),
                                     vf::spatial::IndexKind::GridHash);
  Matrix a, b;
  extract_features_into(*kd, cloud.values(), queries.data(), queries.size(),
                        a);
  extract_features_into(*gh, cloud.values(), queries.data(), queries.size(),
                        b);
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "flat element " << i;
  }
}

TEST(Features, ScratchReuseDoesNotChangeRowsOrAllocatePerCall) {
  auto f = test_field();
  std::vector<std::int64_t> kept;
  for (std::int64_t i = 0; i < f.size(); i += 11) kept.push_back(i);
  SampleCloud cloud(f, kept);
  auto index = vf::spatial::build_index(cloud.points(),
                                        vf::spatial::IndexKind::GridHash);

  std::vector<Vec3> queries;
  vf::util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    queries.push_back({rng.uniform(0, 13), rng.uniform(0, 11),
                       rng.uniform(0, 7)});
  }

  FeatureScratch scratch;
  Matrix a, b;
  extract_features_into(*index, cloud.values(), queries.data(),
                        queries.size(), a, scratch);
  const std::size_t warm = scratch.element_count();
  EXPECT_GT(warm, 0u);
  extract_features_into(*index, cloud.values(), queries.data(),
                        queries.size(), b, scratch);
  // Warm scratch must be reused, not regrown, on a same-shape call...
  EXPECT_EQ(scratch.element_count(), warm);
  // ...and reuse must not perturb the assembled rows.
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]);
  }
}

}  // namespace
