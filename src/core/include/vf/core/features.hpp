#pragma once
// Feature engineering for the FCNN (paper §III-D, Fig 4).
//
// For every void location (grid point rejected by the sampler) we find the
// five nearest sampled points and assemble a 23-dimensional feature vector:
//
//   [ x1 y1 z1 v1  x2 y2 z2 v2  ...  x5 y5 z5 v5  xq yq zq ]
//
// i.e. coordinates + scalar value of each of the 5 nearest samples (20
// numbers) plus the void point's own coordinates (3 numbers). The training
// target is the 4-vector [scalar, d/dx, d/dy, d/dz] at the void location
// (gradients from central differences of the full-resolution timestep); the
// gradient outputs act as a regulariser (paper Fig 8) and can be disabled
// for the ablation.
//
// Features and targets are z-score normalised; the normalisation constants
// are part of the trained model and are applied identically at inference.

#include <cstdint>
#include <vector>

#include "vf/field/gradient.hpp"
#include "vf/field/scalar_field.hpp"
#include "vf/nn/matrix.hpp"
#include "vf/sampling/sample_cloud.hpp"
#include "vf/spatial/kdtree.hpp"
#include "vf/spatial/neighbor_index.hpp"
#include "vf/util/aligned.hpp"

namespace vf::core {

/// Number of nearest sampled points per feature vector (paper: 5).
inline constexpr int kNeighbors = 5;
/// Feature width: kNeighbors * (x,y,z,value) + void (x,y,z).
inline constexpr int kFeatureDim = kNeighbors * 4 + 3;
/// Target width with gradients: scalar + (dx, dy, dz).
inline constexpr int kTargetDimGrad = 4;
inline constexpr int kTargetDimScalar = 1;

/// Column-wise z-score normalisation constants.
struct Normalizer {
  std::vector<double> mean;
  std::vector<double> stddev;  // floored at a tiny epsilon

  /// Fit on the rows of `m`.
  static Normalizer fit(const vf::nn::Matrix& m);
  /// In-place (m - mean) / stddev.
  void apply(vf::nn::Matrix& m) const;
  /// In-place m * stddev + mean.
  void invert(vf::nn::Matrix& m) const;
};

/// Reusable SoA staging for batched neighbour queries: row i of the
/// kNeighbors-wide `indices` / `dist2` arrays holds query i's neighbours.
/// Owned per thread by the streaming engines so feature assembly performs
/// no per-point (or per-tile, after warm-up) heap allocation.
struct FeatureScratch {
  vf::util::AlignedVector<std::uint32_t> indices;
  vf::util::AlignedVector<double> dist2;

  /// Scratch footprint in double-equivalents (for peak-memory accounting).
  [[nodiscard]] std::size_t element_count() const {
    return dist2.capacity() + (indices.capacity() + 1) / 2;
  }
};

/// One request describing a feature-extraction job.
///
/// Exactly one sample source and exactly one query shape must be set:
///   source:  `cloud`                         (an index is built per call)
///            `tree` + `values`               (prebuilt, the hot repeated-
///                                             query path: trainer loops,
///                                             grid tiles, serving)
///   queries: `points`                        (arbitrary positions)
///            `grid` + `indices`              (grid points by linear index)
struct FeatureRequest {
  const vf::sampling::SampleCloud* cloud = nullptr;
  const vf::spatial::NeighborIndex* tree = nullptr;
  const std::vector<double>* values = nullptr;  // parallel to tree.points()

  const std::vector<vf::field::Vec3>* points = nullptr;
  const vf::field::UniformGrid3* grid = nullptr;
  const std::vector<std::int64_t>* indices = nullptr;
};

/// Assemble the (n x 23) feature matrix for `req` (see FeatureRequest).
/// Parallelised; throws std::invalid_argument on an over- or
/// under-specified request.
vf::nn::Matrix extract_features(const FeatureRequest& req);

/// Allocation-free core: fills `X` (resized to count x 23) from `count`
/// query positions. The batched neighbour query stages into `scratch` in
/// SoA layout, then rows are assembled in a second vectorisable pass — no
/// per-point allocation. Internally parallel, but safe to call from inside
/// an active OpenMP region (the nested region serialises), which is how the
/// per-tile streaming path uses it.
void extract_features_into(const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const vf::field::Vec3* queries, std::size_t count,
                           vf::nn::Matrix& X, FeatureScratch& scratch);

/// Convenience overload that owns its scratch (one allocation per call).
void extract_features_into(const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const vf::field::Vec3* queries, std::size_t count,
                           vf::nn::Matrix& X);

/// Targets for the same indices from the ground-truth field. When
/// `with_gradients` the result is (n x 4), otherwise (n x 1).
vf::nn::Matrix extract_targets(const vf::field::ScalarField& truth,
                               const std::vector<std::int64_t>& indices,
                               bool with_gradients);

}  // namespace vf::core
