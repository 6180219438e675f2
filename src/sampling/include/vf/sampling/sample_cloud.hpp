#pragma once
// The unstructured point cloud a sampler emits.
//
// This is the paper's .vtp payload: positions + scalar values for the kept
// grid points. We additionally carry the source grid and the kept linear
// indices so void locations (the rejected grid points, §III-D) can be
// enumerated without re-deriving them, and the cloud can round-trip to disk.

#include <cstdint>
#include <string>
#include <vector>

#include "vf/field/scalar_field.hpp"

namespace vf::sampling {

class SampleCloud {
 public:
  SampleCloud() = default;

  /// Build from a field and the linear indices of the kept grid points.
  /// Indices are sorted and deduplicated.
  SampleCloud(const vf::field::ScalarField& source,
              std::vector<std::int64_t> kept_indices);

  /// Build from raw points/values without grid association (e.g. read from
  /// a .vtp produced elsewhere).
  SampleCloud(std::vector<vf::field::Vec3> points, std::vector<double> values);

  /// Process-unique identity, drawn at construction and shared by copies.
  /// A cloud has no mutators, so two clouds with one id hold the same
  /// samples: caches of a scrubbed, indexed cloud (vf::core::BoundCloud)
  /// key on it rather than on buffer addresses the allocator hands to the
  /// next cloud of the same size.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] const std::vector<vf::field::Vec3>& points() const {
    return points_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  /// True when the cloud knows the grid it was sampled from.
  [[nodiscard]] bool has_grid() const { return has_grid_; }
  [[nodiscard]] const vf::field::UniformGrid3& grid() const { return grid_; }

  /// Linear indices of kept grid points (empty when !has_grid()).
  [[nodiscard]] const std::vector<std::int64_t>& kept_indices() const {
    return kept_indices_;
  }

  /// Linear indices of the void locations: every grid point NOT kept.
  [[nodiscard]] std::vector<std::int64_t> void_indices() const;

  /// Fraction of grid points kept (0 when no grid).
  [[nodiscard]] double sampling_fraction() const;

  /// Copy with unusable samples removed: points whose value or any
  /// coordinate is non-finite (NaN/Inf), and exact positional duplicates
  /// (first occurrence wins). The dropped counts are reported through the
  /// out-parameters. Grid association and the kept-index mapping are
  /// preserved for the surviving points, so scrubbed grid locations simply
  /// become voids for reconstruction.
  [[nodiscard]] SampleCloud scrubbed(std::size_t& dropped_nonfinite,
                                     std::size_t& dropped_duplicates) const;

  /// Write as .vtp / read back.
  void save_vtp(const std::string& path, const std::string& name) const;
  static SampleCloud load_vtp(const std::string& path);

 private:
  static std::uint64_t draw_id();

  std::uint64_t id_ = draw_id();
  std::vector<vf::field::Vec3> points_;
  std::vector<double> values_;
  std::vector<std::int64_t> kept_indices_;
  vf::field::UniformGrid3 grid_;
  bool has_grid_ = false;
};

/// Common sampler interface: keep ~`fraction` of the grid points of `field`.
class Sampler {
 public:
  virtual ~Sampler() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual SampleCloud sample(const vf::field::ScalarField& field,
                                           double fraction,
                                           std::uint64_t seed) const = 0;
};

}  // namespace vf::sampling
