#include <cmath>
#include <stdexcept>

#include "vf/interp/methods.hpp"
#include "vf/spatial/kdtree.hpp"

#include <omp.h>

namespace vf::interp {

namespace {

/// Neighbour count of the modified Shepard estimate.
constexpr int kShepardNeighbors = 8;

}  // namespace

double modified_shepard(const vf::spatial::NeighborIndex& index,
                        const std::vector<double>& values,
                        const vf::field::Vec3& p,
                        std::vector<vf::spatial::Neighbor>& nbrs) {
  index.knn(p, kShepardNeighbors, nbrs);
  // Franke-Nielson modified Shepard weights with support radius R just
  // beyond the k-th neighbour.
  const double R = std::sqrt(nbrs.back().dist2) * 1.0000001;
  double wsum = 0.0, acc = 0.0;
  for (const auto& nb : nbrs) {
    const double d = std::sqrt(nb.dist2);
    if (d < 1e-12) return values[nb.index];  // query coincides with a sample
    double w = (R - d) / (R * d);
    w *= w;
    wsum += w;
    acc += w * values[nb.index];
  }
  return wsum > 0.0 ? acc / wsum : values[nbrs[0].index];
}

vf::field::ScalarField ShepardReconstructor::reconstruct(
    const vf::sampling::SampleCloud& cloud,
    const vf::field::UniformGrid3& grid) const {
  if (cloud.size() == 0) {
    throw std::invalid_argument("shepard: empty sample cloud");
  }
  const vf::spatial::KdTree tree(cloud.points());
  const auto& values = cloud.values();
  vf::field::ScalarField out(grid, "shepard");
  const std::int64_t n = grid.point_count();

  // vf-par: per-thread-scratch — nbrs is thread-local; iteration i writes
  // only out[i]; tree/values are read-only.
#pragma omp parallel
  {
    std::vector<vf::spatial::Neighbor> nbrs;  // reused per thread
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      out[i] = modified_shepard(tree, values, grid.position(i), nbrs);
    }
  }
  return out;
}

}  // namespace vf::interp
