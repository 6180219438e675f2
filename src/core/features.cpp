#include "vf/core/features.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "vf/util/contract.hpp"
#include "vf/util/parallel.hpp"

#include <omp.h>

namespace vf::core {

using vf::field::Vec3;
using vf::nn::Matrix;

Normalizer Normalizer::fit(const Matrix& m) {
  Normalizer n;
  const std::size_t cols = m.cols(), rows = m.rows();
  if (rows == 0) throw std::invalid_argument("Normalizer::fit: empty matrix");
  n.mean.assign(cols, 0.0);
  n.stddev.assign(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = m.row(r);
    for (std::size_t c = 0; c < cols; ++c) n.mean[c] += row[c];
  }
  for (auto& v : n.mean) v /= static_cast<double>(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = m.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      double d = row[c] - n.mean[c];
      n.stddev[c] += d * d;
    }
  }
  for (auto& v : n.stddev) {
    v = std::sqrt(v / static_cast<double>(rows));
    if (v < 1e-12) v = 1.0;  // constant column: leave centred only
  }
  return n;
}

namespace {

/// Row grain so parallel_for only forks when there are ~16k elements.
std::int64_t row_grain(std::size_t cols) {
  return std::max<std::int64_t>(
      1, (std::int64_t{1} << 14) / static_cast<std::int64_t>(
                                       std::max<std::size_t>(1, cols)));
}

}  // namespace

void Normalizer::apply(Matrix& m) const {
  if (m.cols() != mean.size()) {
    throw std::invalid_argument("Normalizer::apply: column mismatch");
  }
  const std::size_t cols = m.cols();
  const double* mu = mean.data();
  const double* sd = stddev.data();
  vf::util::parallel_for(
      0, static_cast<std::int64_t>(m.rows()),
      [&](std::int64_t r) {
        double* row = m.row(static_cast<std::size_t>(r));
#pragma omp simd
        for (std::size_t c = 0; c < cols; ++c) {
          row[c] = (row[c] - mu[c]) / sd[c];
        }
      },
      row_grain(cols));
}

void Normalizer::invert(Matrix& m) const {
  if (m.cols() != mean.size()) {
    throw std::invalid_argument("Normalizer::invert: column mismatch");
  }
  const std::size_t cols = m.cols();
  const double* mu = mean.data();
  const double* sd = stddev.data();
  vf::util::parallel_for(
      0, static_cast<std::int64_t>(m.rows()),
      [&](std::int64_t r) {
        double* row = m.row(static_cast<std::size_t>(r));
#pragma omp simd
        for (std::size_t c = 0; c < cols; ++c) {
          row[c] = row[c] * sd[c] + mu[c];
        }
      },
      row_grain(cols));
}

void extract_features_into(const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const Vec3* queries, std::size_t count, Matrix& X,
                           FeatureScratch& scratch) {
  if (index.size() < kNeighbors) {
    throw std::invalid_argument("extract_features: cloud smaller than k");
  }
  if (values.size() != index.size()) {
    throw std::invalid_argument("extract_features: values/tree size mismatch");
  }
  const auto& pts = index.points();
  X.resize(count, kFeatureDim);
  if (count == 0) return;

  // Stage 1 — batched k-NN into SoA scratch. GridHashIndex answers this
  // with the cell-grouped sweep; KdTree with per-thread query scratch.
  constexpr auto uk = static_cast<std::size_t>(kNeighbors);
  scratch.indices.resize(count * uk);
  scratch.dist2.resize(count * uk);
  index.knn_batch(queries, count, kNeighbors, scratch.indices.data(),
                  scratch.dist2.data());

  // Stage 2 — row assembly from the staged neighbour indices: pure gathers
  // with no search logic, so the loop body stays branch-free and the
  // compiler vectorises the stores.
  const std::uint32_t* nbr = scratch.indices.data();
  vf::util::parallel_for(
      0, static_cast<std::int64_t>(count),
      [&](std::int64_t qi) {
        const auto u = static_cast<std::size_t>(qi);
        const Vec3& q = queries[u];
        const std::uint32_t* ni = nbr + u * uk;
        double* row = X.row(u);
        for (std::size_t j = 0; j < uk; ++j) {
          VF_BOUNDS_CHECK(ni[j], pts.size());
          const Vec3& p = pts[ni[j]];
          row[4 * j + 0] = p.x;
          row[4 * j + 1] = p.y;
          row[4 * j + 2] = p.z;
          row[4 * j + 3] = values[ni[j]];
        }
        row[4 * uk + 0] = q.x;
        row[4 * uk + 1] = q.y;
        row[4 * uk + 2] = q.z;
      },
      /*grain=*/512);
}

void extract_features_into(const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const Vec3* queries, std::size_t count, Matrix& X) {
  FeatureScratch scratch;
  extract_features_into(index, values, queries, count, X, scratch);
}

Matrix extract_features(const FeatureRequest& req) {
  const bool has_cloud = req.cloud != nullptr;
  const bool has_tree = req.tree != nullptr || req.values != nullptr;
  if (has_cloud == has_tree) {
    throw std::invalid_argument(
        "extract_features: set exactly one sample source (cloud, or "
        "tree+values)");
  }
  if (has_tree && (req.tree == nullptr || req.values == nullptr)) {
    throw std::invalid_argument(
        "extract_features: tree and values must be set together");
  }
  const bool has_points = req.points != nullptr;
  const bool has_grid = req.grid != nullptr || req.indices != nullptr;
  if (has_points == has_grid) {
    throw std::invalid_argument(
        "extract_features: set exactly one query shape (points, or "
        "grid+indices)");
  }
  if (has_grid && (req.grid == nullptr || req.indices == nullptr)) {
    throw std::invalid_argument(
        "extract_features: grid and indices must be set together");
  }

  const Vec3* queries = nullptr;
  std::size_t count = 0;
  std::vector<Vec3> scratch;
  if (has_points) {
    queries = req.points->data();
    count = req.points->size();
  } else {
    scratch.resize(req.indices->size());
    const auto& grid = *req.grid;
    const auto& indices = *req.indices;
    vf::util::parallel_for(
        0, static_cast<std::int64_t>(indices.size()), [&](std::int64_t i) {
          scratch[static_cast<std::size_t>(i)] =
              grid.position(indices[static_cast<std::size_t>(i)]);
        });
    queries = scratch.data();
    count = scratch.size();
  }

  Matrix X;
  if (has_cloud) {
    // One-shot source: pick the index by this call's query density.
    const auto index = vf::spatial::build_index(
        req.cloud->points(), vf::spatial::IndexKind::Auto, count);
    extract_features_into(*index, req.cloud->values(), queries, count, X);
  } else {
    extract_features_into(*req.tree, *req.values, queries, count, X);
  }
  return X;
}

Matrix extract_targets(const vf::field::ScalarField& truth,
                       const std::vector<std::int64_t>& indices,
                       bool with_gradients) {
  const int width = with_gradients ? kTargetDimGrad : kTargetDimScalar;
  Matrix Y(indices.size(), static_cast<std::size_t>(width));
  const auto& grid = truth.grid();

  vf::util::parallel_for(
      0, static_cast<std::int64_t>(indices.size()), [&](std::int64_t i) {
        std::int64_t idx = indices[static_cast<std::size_t>(i)];
        double* row = Y.row(static_cast<std::size_t>(i));
        row[0] = truth[idx];
        if (with_gradients) {
          auto [gi, gj, gk] = grid.ijk(idx);
          auto g = vf::field::gradient_at(truth, gi, gj, gk);
          row[1] = g[0];
          row[2] = g[1];
          row[3] = g[2];
        }
      });
  return Y;
}

}  // namespace vf::core
