#pragma once
// Uniform grid-hash (bucketed cell) neighbour index.
//
// The void points the FCNN reconstructs are a regular grid sweep over the
// volume, so many queries share each cell. This index exploits that.
// Points are bucketed into a uniform grid sized at ~2 points per occupied
// volume cell and stored in CSR layout with SoA coordinates, so a k-NN
// query is: locate the home cell, scan outward in Chebyshev shells, and
// stop once the k-th best distance is strictly closer than the nearest
// unscanned cell face, less a rounding margin. `knn_batch` visits the
// queries grouped by home cell (a sort of the batch's (cell, query) keys,
// with no per-cell work) and copies each shell's points into a per-cell
// candidate list the first time one of the cell's queries needs that
// shell; the cell's later queries scan the list shell by shell, a handful
// of SIMD distance evaluations each, so each cell's shells are gathered
// once per call. A cell with one query in the batch walks in place.
//
// Results are exact (same distances as brute force), with ties broken by
// ascending original index in `knn` and `knn_batch` alike, matching
// brute_force_knn: a row does not depend on which other queries share its
// batch.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "vf/field/grid.hpp"
#include "vf/spatial/neighbor_index.hpp"
#include "vf/util/aligned.hpp"

namespace vf::spatial {

class GridHashIndex final : public NeighborIndex {
 public:
  GridHashIndex() = default;

  /// Bucket a copy of `points` into a uniform grid sized at roughly
  /// `target_per_cell` points per cell. Build is O(n) (counting sort).
  explicit GridHashIndex(std::vector<vf::field::Vec3> points,
                         double target_per_cell = 2.0);

  [[nodiscard]] const char* kind_name() const override { return "grid_hash"; }
  [[nodiscard]] std::size_t size() const override { return points_.size(); }
  [[nodiscard]] const std::vector<vf::field::Vec3>& points() const override {
    return points_;
  }

  void knn(const vf::field::Vec3& query, int k,
           std::vector<Neighbor>& out) const override;
  using NeighborIndex::knn;

  /// Cell-grouped sweep: the shells gathered for one home cell are reused
  /// by every query of the batch in that cell.
  void knn_batch(const vf::field::Vec3* queries, std::size_t count, int k,
                 std::uint32_t* indices, double* dist2) const override;

  /// Grid resolution chosen at build (for tests and the ablation bench).
  [[nodiscard]] std::array<int, 3> cell_dims() const {
    return {ncx_, ncy_, ncz_};
  }

 private:
  struct SweepCache;

  void home_cell(const vf::field::Vec3& q, int& cx, int& cy, int& cz) const;
  template <typename CellFn>
  void for_each_ring_cell(int cx, int cy, int cz, int r, CellFn&& fn) const;
  /// Squared distance from `q` to the nearest cell face outside the
  /// already-scanned box of radius `r` around (cx,cy,cz), less a rounding
  /// margin; +inf when the box covers the whole grid. Every unscanned
  /// point's computed squared distance is at least this.
  [[nodiscard]] double ring_bound2(const vf::field::Vec3& q, int cx, int cy,
                                   int cz, int r) const;
  /// Append the next shell's points to `cache`'s candidates.
  void gather_ring(SweepCache& cache) const;
  /// k-NN of `q`, a query in `cache`'s home cell, into `sel`.
  void scan_cached(SweepCache& cache, const vf::field::Vec3& q, std::size_t k,
                   std::vector<Neighbor>& sel) const;

  std::vector<vf::field::Vec3> points_;  // original order (API view)
  // Bucket-sorted SoA coordinates + CSR cell ranges. order_ maps bucket
  // position back to the caller's original index.
  vf::util::AlignedVector<double> xs_, ys_, zs_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> cell_start_;  // size ncells+1
  vf::field::Vec3 origin_{0, 0, 0};
  vf::field::Vec3 h_{1, 1, 1};      // cell widths (1 on degenerate axes)
  vf::field::Vec3 inv_h_{0, 0, 0};  // 1/width (0 on degenerate axes)
  double face_slack_ = 0.0;  // rounding margin on face positions
  int ncx_ = 0, ncy_ = 0, ncz_ = 0;
};

}  // namespace vf::spatial
