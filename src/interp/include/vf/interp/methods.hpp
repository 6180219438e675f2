#pragma once
// Concrete classical reconstruction methods (paper §III-B).

#include <vector>

#include "vf/interp/reconstructor.hpp"
#include "vf/spatial/neighbor_index.hpp"

namespace vf::interp {

/// Modified Shepard estimate (paper §III-B) at `p` from the 8 nearest
/// samples in `index` (values parallel to the index's points), with
/// Franke-Nielson weights w_i = ((R - d_i) / (R d_i))^2, where R lies just
/// beyond the farthest of those neighbours. A query on a sample returns
/// that sample's value. This is the library's one classical per-point
/// estimate: the `shepard` grid, per-point repair of non-finite network
/// outputs, serve's classical answers and the facade's point mode all call
/// it. `nbrs` is caller-owned neighbour scratch, so a loop over points
/// allocates nothing. Precondition: the index is not empty.
[[nodiscard]] double modified_shepard(const vf::spatial::NeighborIndex& index,
                                      const std::vector<double>& values,
                                      const vf::field::Vec3& p,
                                      std::vector<vf::spatial::Neighbor>& nbrs);

/// Nearest neighbour: each grid point takes the value of the closest sample.
/// Fast but blocky (Voronoi-piecewise-constant).
class NearestNeighborReconstructor final : public Reconstructor {
 public:
  [[nodiscard]] std::string name() const override { return "nearest"; }
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid) const override;
};

/// Modified Shepard (local inverse-distance weighting): modified_shepard
/// at every grid point over a k-d tree of the cloud. The Franke-Nielson
/// weights give compact support and C0-continuity (unlike global Shepard).
class ShepardReconstructor final : public Reconstructor {
 public:
  [[nodiscard]] std::string name() const override { return "shepard"; }
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid) const override;
};

/// Piecewise-linear interpolation over the Delaunay tetrahedralization —
/// the paper's strongest classical baseline. Grid points outside the convex
/// hull fall back to nearest-neighbour. `Mode` reproduces the paper's two
/// implementations (Fig 10): Naive = sequential scan with cold point
/// location per query (the slow "initial sequential implementation");
/// Parallel = OpenMP over grid slabs with walk hints (the CGAL+OpenMP one).
class LinearDelaunayReconstructor final : public Reconstructor {
 public:
  enum class Mode { Naive, Sequential, Parallel };

  explicit LinearDelaunayReconstructor(Mode mode = Mode::Parallel)
      : mode_(mode) {}
  [[nodiscard]] std::string name() const override {
    switch (mode_) {
      case Mode::Naive: return "linear_naive";
      case Mode::Sequential: return "linear_seq";
      default: return "linear";
    }
  }
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid) const override;

 private:
  Mode mode_;
};

/// Natural neighbour (discrete Sibson, after Park et al. 2006): the Sibson
/// weight of sample s at query q is the volume q's Voronoi cell would steal
/// from s's cell, approximated on the target grid itself. Implemented as the
/// scatter formulation: every voxel u with nearest sample distance r_u
/// contributes value(nn(u)) to all voxels within r_u of u.
class NaturalNeighborReconstructor final : public Reconstructor {
 public:
  [[nodiscard]] std::string name() const override { return "natural"; }
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid) const override;
};

/// Local radial basis function interpolation (Gaussian kernel over the k
/// nearest samples, ridge-regularised). The paper measured RBFs as far
/// slower without quality gains and excluded them from the sweeps; included
/// here for completeness.
class RbfReconstructor final : public Reconstructor {
 public:
  explicit RbfReconstructor(int k = 16, double ridge = 1e-10)
      : k_(k), ridge_(ridge) {}
  [[nodiscard]] std::string name() const override { return "rbf"; }
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid) const override;

 private:
  int k_;
  double ridge_;
};

}  // namespace vf::interp
