#pragma once
// The one FCNN inference kernel and the bound cloud it queries.
//
// Every FCNN answer the library gives — a whole grid (FcnnReconstructor),
// a facade point query (vf::api::Reconstructor), a served micro-batch
// (vf::serve::ShardRouter) — comes from predict_points over a BoundCloud:
//
//   BoundCloud      the sample cloud with unusable samples scrubbed, its
//                   neighbour index, and the scrub counts. It rebuilds only
//                   when a different cloud is bound (SampleCloud::id) or
//                   IndexKind::Auto picks another index kind, so repeated
//                   queries of one sampling pay the scrub and build once.
//   predict_points  five-neighbour features (paper §III-D) -> z-score
//                   normalisation -> the network -> scalar
//                   de-normalisation -> per-point modified-Shepard
//                   repair (vf::interp::modified_shepard) of non-finite
//                   outputs. The network is a PackedModel: its weights
//                   packed once (fp64 or quantized). The FcnnModel overload
//                   packs at QuantPolicy::None on every call.
//
// A point's answer depends only on its own position: every GEMM is
// row-independent and the int8 path scales activations per row, so it
// does not matter which grid tile or serve micro-batch carried the point.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "vf/core/features.hpp"
#include "vf/core/model.hpp"
#include "vf/core/report.hpp"
#include "vf/nn/quant.hpp"
#include "vf/sampling/sample_cloud.hpp"
#include "vf/spatial/neighbor_index.hpp"

namespace vf::core {

/// A sample cloud made ready for k-NN queries: the scrubbed copy, its
/// neighbour index and what scrubbing dropped. Const access is
/// thread-safe; bind() is not.
class BoundCloud {
 public:
  /// Bind `cloud` for a workload of `expected_queries` points per call.
  /// Scrubs and indexes only when `cloud` is not the bound one (by id);
  /// rebuilds only the index when Auto resolves `kind` differently for
  /// this workload.
  void bind(const vf::sampling::SampleCloud& cloud,
            vf::spatial::IndexKind kind, std::size_t expected_queries);

  /// The scrubbed cloud; grid association survives scrubbing.
  [[nodiscard]] const vf::sampling::SampleCloud& cloud() const {
    return cloud_;
  }
  [[nodiscard]] std::size_t size() const { return cloud_.size(); }
  /// Sample values parallel to index().points().
  [[nodiscard]] const std::vector<double>& values() const {
    return cloud_.values();
  }
  /// Precondition: bind() has been called.
  [[nodiscard]] const vf::spatial::NeighborIndex& index() const {
    return *index_;
  }
  /// Index builds so far (cache misses).
  [[nodiscard]] std::size_t builds() const { return builds_; }

  /// A fresh report carrying the ingest accounting: the bound cloud's
  /// size before scrubbing and the scrub counts.
  [[nodiscard]] ReconstructReport report() const;

 private:
  vf::sampling::SampleCloud cloud_;
  std::unique_ptr<vf::spatial::NeighborIndex> index_;
  vf::spatial::IndexKind kind_ = vf::spatial::IndexKind::Auto;
  std::uint64_t source_id_ = 0;
  std::size_t input_points_ = 0;
  std::size_t scrubbed_nonfinite_ = 0;
  std::size_t scrubbed_duplicates_ = 0;
  std::size_t builds_ = 0;
};

/// Reusable per-thread scratch for predict_points (feature matrix,
/// activation ping-pong, SoA neighbour staging, repair neighbours).
/// Buffers grow to the largest batch seen and are reused after.
struct PointScratch {
  vf::nn::Matrix X;
  vf::nn::Matrix Y;
  FeatureScratch features;
  vf::nn::QuantScratch quant;
  std::vector<vf::spatial::Neighbor> repair;

  /// Footprint in double-equivalents (peak-memory accounting).
  [[nodiscard]] std::size_t element_count() const {
    return X.size() + Y.size() + features.element_count() +
           quant.element_count() + 2 * repair.capacity();
  }
};

/// Predict the scalar at `count` positions into `out`, against `index`
/// over (already scrubbed) samples with `values`. Returns the number of
/// points whose network output was non-finite and was replaced by the
/// modified Shepard estimate (vf::interp::modified_shepard); when
/// `repaired_rows` is given each such row is appended to it. After the
/// call `scratch.Y` holds the normalised network outputs, one row per
/// point (gradient columns included). Thread-safe for concurrent calls
/// with distinct `scratch`/`out`; its kernels run on the caller's OpenMP
/// team (one thread inside a parallel region or a serve worker).
std::size_t predict_points(const PackedModel& model,
                           const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const vf::field::Vec3* points, std::size_t count,
                           double* out, PointScratch& scratch,
                           std::vector<std::size_t>* repaired_rows = nullptr);

/// The same over a row-major model, packed at QuantPolicy::None for this
/// call only: the answer equals the packed fp64 model's bit for bit, at
/// the price of packing every weight. Throws std::invalid_argument when
/// the network is not a dense/ReLU stack.
std::size_t predict_points(const FcnnModel& model,
                           const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const vf::field::Vec3* points, std::size_t count,
                           double* out, PointScratch& scratch,
                           std::vector<std::size_t>* repaired_rows = nullptr);

}  // namespace vf::core
