#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "vf/interp/methods.hpp"
#include "vf/spatial/kdtree.hpp"
#include "vf/util/parallel.hpp"

#include <omp.h>

namespace vf::interp {

vf::field::ScalarField NaturalNeighborReconstructor::reconstruct(
    const vf::sampling::SampleCloud& cloud,
    const vf::field::UniformGrid3& grid) const {
  if (cloud.size() == 0) {
    throw std::invalid_argument("natural: empty sample cloud");
  }
  vf::spatial::KdTree tree(cloud.points());
  const auto& values = cloud.values();
  const auto& d = grid.dims();
  const std::int64_t n = grid.point_count();

  // Pass 1: discrete Voronoi diagram of the samples on the target grid —
  // nearest sample id and distance for every voxel.
  std::vector<std::uint32_t> nn_id(static_cast<std::size_t>(n));
  std::vector<float> nn_dist(static_cast<std::size_t>(n));
  vf::util::parallel_for(0, n, [&](std::int64_t i) {
    auto nb = tree.knn(grid.position(i), 1);
    nn_id[static_cast<std::size_t>(i)] = nb[0].index;
    nn_dist[static_cast<std::size_t>(i)] =
        static_cast<float>(std::sqrt(nb[0].dist2));
  });

  // Pass 2: discrete Sibson scatter. Voxel u "would be stolen" by an
  // inserted query q iff |u - q| < |u - nn(u)|, so u contributes its
  // sample's value to every voxel strictly within nn_dist(u) of u. Each
  // target plane kq belongs to one iteration, which adds the contributions
  // of the source voxels u reaching it in ascending index order — the
  // order of a serial scatter — so the floating-point sums are the same at
  // any thread count and under any schedule.
  std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
  std::vector<double> wgt(static_cast<std::size_t>(n), 0.0);
  const auto& h = grid.spacing();
  // Widest z reach (in planes) of any source voxel in each plane, so a
  // target plane visits only the source planes that can reach it.
  std::vector<int> plane_reach(static_cast<std::size_t>(d.nz), 0);
  const std::int64_t plane = std::int64_t{d.nx} * d.ny;
  for (std::int64_t u = 0; u < n; ++u) {
    const double r = nn_dist[static_cast<std::size_t>(u)];
    int& reach = plane_reach[static_cast<std::size_t>(u / plane)];
    reach = std::max(reach, static_cast<int>(r / h.z));
  }

  // vf-par: disjoint-writes — iteration kq writes only plane kq of acc/wgt.
#pragma omp parallel for schedule(dynamic, 1)
  for (int kq = 0; kq < d.nz; ++kq) {
    for (int ku = 0; ku < d.nz; ++ku) {
      const int dk = std::abs(kq - ku);
      if (dk > plane_reach[static_cast<std::size_t>(ku)]) continue;
      double dz = (kq - ku) * h.z;
      for (int ju = 0; ju < d.ny; ++ju) {
        for (int iu = 0; iu < d.nx; ++iu) {
          std::int64_t u = grid.index(iu, ju, ku);
          double r = nn_dist[static_cast<std::size_t>(u)];
          if (dk > static_cast<int>(r / h.z)) continue;
          double val = values[nn_id[static_cast<std::size_t>(u)]];
          int rj = static_cast<int>(r / h.y);
          double r2 = r * r;
          for (int jq = std::max(0, ju - rj);
               jq <= std::min(d.ny - 1, ju + rj); ++jq) {
            double dy = (jq - ju) * h.y;
            double dyz2 = dy * dy + dz * dz;
            if (dyz2 >= r2) continue;
            // widest |di| with di^2 h.x^2 + dyz2 < r2
            int di_max = static_cast<int>(std::sqrt(r2 - dyz2) / h.x);
            for (int iq = std::max(0, iu - di_max);
                 iq <= std::min(d.nx - 1, iu + di_max); ++iq) {
              double dx = (iq - iu) * h.x;
              if (dx * dx + dyz2 >= r2) continue;
              std::int64_t q = grid.index(iq, jq, kq);
              acc[static_cast<std::size_t>(q)] += val;
              wgt[static_cast<std::size_t>(q)] += 1.0;
            }
          }
        }
      }
    }
  }

  // Pass 3: normalise; voxels that received no contribution (isolated
  // regions with r_u = 0 neighbours) fall back to their nearest sample.
  vf::field::ScalarField out(grid, "natural");
  vf::util::parallel_for(0, n, [&](std::int64_t i) {
    auto ui = static_cast<std::size_t>(i);
    out[i] = wgt[ui] > 0.0 ? acc[ui] / wgt[ui] : values[nn_id[ui]];
  });
  return out;
}

}  // namespace vf::interp
