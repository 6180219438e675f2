#pragma once
// Common interface over the spatial neighbour indexes (k-d tree, grid hash).
//
// The reconstruction pipeline asks one question of the spatial layer: "the k
// nearest sampled points of this query" (paper §III-D uses k = 5). Two
// implementations answer it with very different cost profiles:
//
//   KdTree        — exact, O(n log n) build, O(log n) per query. Wins when
//                   queries are sparse relative to the cloud (a handful of
//                   probe points against a large sample set).
//   GridHashIndex — exact, O(n) build into uniform cells, O(1) expected per
//                   query at grid density. Wins when the queries *are* a
//                   dense grid sweep (reconstructing every void point of a
//                   timestep), because candidate buckets are shared between
//                   adjacent queries and the batched sweep amortises them.
//
// `select_index_kind` encodes the crossover policy measured by
// bench/ablation_knn.cpp; engines pass IndexKind::Auto and get the right
// structure for their workload without callers caring which one answered.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vf/field/grid.hpp"

namespace vf::spatial {

/// One k-NN result: index into the original point array + squared distance.
struct Neighbor {
  std::uint32_t index = 0;
  double dist2 = 0.0;
};

/// Abstract exact k-NN index over an immutable point cloud. Queries are
/// const and thread-safe after construction; `knn_batch` is the hot entry
/// used by feature extraction and may parallelise internally.
class NeighborIndex {
 public:
  NeighborIndex() = default;
  NeighborIndex(const NeighborIndex&) = default;
  NeighborIndex(NeighborIndex&&) = default;
  NeighborIndex& operator=(const NeighborIndex&) = default;
  NeighborIndex& operator=(NeighborIndex&&) = default;
  virtual ~NeighborIndex() = default;

  /// Implementation name ("kdtree" / "grid_hash") for obs and benches.
  [[nodiscard]] virtual const char* kind_name() const = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// The indexed points in the caller's original order.
  [[nodiscard]] virtual const std::vector<vf::field::Vec3>& points() const = 0;

  /// k-NN without allocation: fills `out` sorted by ascending distance,
  /// resized to min(k, size()); cleared when k <= 0 or the index is empty.
  virtual void knn(const vf::field::Vec3& query, int k,
                   std::vector<Neighbor>& out) const = 0;

  /// Allocating convenience overload.
  [[nodiscard]] std::vector<Neighbor> knn(const vf::field::Vec3& query,
                                          int k) const {
    std::vector<Neighbor> out;
    knn(query, k, out);
    return out;
  }

  /// Batched k-NN into SoA output: row i of the k-wide `indices` / `dist2`
  /// arrays holds query i's neighbours sorted by ascending distance. Both
  /// outputs must hold count*k elements. Requires k >= 1 and size() >= k so
  /// every row is full — callers batch only after validating the cloud.
  /// Default implementation parallelises per-query `knn` with per-thread
  /// scratch; GridHashIndex overrides it with a sweep that visits the
  /// queries grouped by home cell and breaks ties by ascending index, as
  /// its `knn` does, so each of its rows is brute force's whatever else
  /// shares the batch.
  virtual void knn_batch(const vf::field::Vec3* queries, std::size_t count,
                         int k, std::uint32_t* indices, double* dist2) const;
};

/// Which index implementation to build (Auto = pick by query density).
enum class IndexKind : std::uint8_t { Auto = 0, KdTree = 1, GridHash = 2 };

[[nodiscard]] const char* to_string(IndexKind kind);

/// Parse "auto" / "kdtree" / "grid_hash" (throws std::invalid_argument).
[[nodiscard]] IndexKind index_kind_from_name(const std::string& name);

/// Resolve Auto: grid hash when the query workload is dense relative to the
/// cloud (the void-grid sweep regime), k-d tree for sparse probing. The
/// crossover is recorded by bench/ablation_knn.cpp.
[[nodiscard]] IndexKind select_index_kind(std::size_t point_count,
                                          std::size_t query_count);

/// Build the requested index over a copy of `points`. Auto is resolved with
/// `select_index_kind(points.size(), expected_queries)`.
[[nodiscard]] std::unique_ptr<NeighborIndex> build_index(
    std::vector<vf::field::Vec3> points, IndexKind kind,
    std::size_t expected_queries = 0);

}  // namespace vf::spatial
