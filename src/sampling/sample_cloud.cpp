#include "vf/sampling/sample_cloud.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "vf/field/vtk_io.hpp"

namespace vf::sampling {

std::uint64_t SampleCloud::draw_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

SampleCloud::SampleCloud(const vf::field::ScalarField& source,
                         std::vector<std::int64_t> kept_indices)
    : kept_indices_(std::move(kept_indices)),
      grid_(source.grid()),
      has_grid_(true) {
  std::sort(kept_indices_.begin(), kept_indices_.end());
  kept_indices_.erase(
      std::unique(kept_indices_.begin(), kept_indices_.end()),
      kept_indices_.end());
  points_.reserve(kept_indices_.size());
  values_.reserve(kept_indices_.size());
  for (std::int64_t idx : kept_indices_) {
    if (idx < 0 || idx >= source.size()) {
      throw std::out_of_range("SampleCloud: kept index out of range");
    }
    points_.push_back(grid_.position(idx));
    values_.push_back(source[idx]);
  }
}

SampleCloud::SampleCloud(std::vector<vf::field::Vec3> points,
                         std::vector<double> values)
    : points_(std::move(points)), values_(std::move(values)) {
  if (points_.size() != values_.size()) {
    throw std::invalid_argument("SampleCloud: point/value count mismatch");
  }
}

std::vector<std::int64_t> SampleCloud::void_indices() const {
  if (!has_grid_) return {};
  std::vector<std::int64_t> voids;
  const std::int64_t n = grid_.point_count();
  voids.reserve(static_cast<std::size_t>(n) - kept_indices_.size());
  std::size_t k = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (k < kept_indices_.size() && kept_indices_[k] == i) {
      ++k;
    } else {
      voids.push_back(i);
    }
  }
  return voids;
}

namespace {

/// Exact bit-pattern identity of a position, for duplicate detection.
/// Collisions in the hash are resolved by the set's equality compare, so
/// distinct positions are never merged.
struct PointKey {
  std::uint64_t x, y, z;
  bool operator==(const PointKey&) const = default;
};

struct PointKeyHash {
  std::size_t operator()(const PointKey& k) const {
    std::uint64_t h = k.x * 0x9e3779b97f4a7c15ULL;
    h ^= k.y + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= k.z + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

PointKey key_of(const vf::field::Vec3& p) {
  PointKey k;
  std::memcpy(&k.x, &p.x, sizeof k.x);
  std::memcpy(&k.y, &p.y, sizeof k.y);
  std::memcpy(&k.z, &p.z, sizeof k.z);
  return k;
}

}  // namespace

SampleCloud SampleCloud::scrubbed(std::size_t& dropped_nonfinite,
                                  std::size_t& dropped_duplicates) const {
  dropped_nonfinite = 0;
  dropped_duplicates = 0;
  std::vector<char> keep(points_.size(), 1);
  std::unordered_set<PointKey, PointKeyHash> seen;
  seen.reserve(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const auto& p = points_[i];
    if (!std::isfinite(values_[i]) || !std::isfinite(p.x) ||
        !std::isfinite(p.y) || !std::isfinite(p.z)) {
      keep[i] = 0;
      ++dropped_nonfinite;
    } else if (!seen.insert(key_of(p)).second) {
      keep[i] = 0;
      ++dropped_duplicates;
    }
  }
  if (dropped_nonfinite == 0 && dropped_duplicates == 0) return *this;

  SampleCloud out;
  out.grid_ = grid_;
  out.has_grid_ = has_grid_;
  const std::size_t survivors =
      points_.size() - dropped_nonfinite - dropped_duplicates;
  out.points_.reserve(survivors);
  out.values_.reserve(survivors);
  if (has_grid_) out.kept_indices_.reserve(survivors);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!keep[i]) continue;
    out.points_.push_back(points_[i]);
    out.values_.push_back(values_[i]);
    if (has_grid_) out.kept_indices_.push_back(kept_indices_[i]);
  }
  return out;
}

double SampleCloud::sampling_fraction() const {
  if (!has_grid_ || grid_.point_count() == 0) return 0.0;
  return static_cast<double>(kept_indices_.size()) /
         static_cast<double>(grid_.point_count());
}

void SampleCloud::save_vtp(const std::string& path,
                           const std::string& name) const {
  vf::field::write_vtp(points_, values_, name, path);
}

SampleCloud SampleCloud::load_vtp(const std::string& path) {
  auto pd = vf::field::read_vtp(path);
  return SampleCloud(std::move(pd.points), std::move(pd.values));
}

}  // namespace vf::sampling
