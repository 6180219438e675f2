#include "vf/core/inference.hpp"

#include <cmath>

#include "vf/interp/methods.hpp"
#include "vf/obs/obs.hpp"

namespace vf::core {

using vf::field::Vec3;
using vf::sampling::SampleCloud;
using vf::spatial::IndexKind;

void BoundCloud::bind(const SampleCloud& cloud, IndexKind kind,
                      std::size_t expected_queries) {
  const bool same_cloud = index_ != nullptr && cloud.id() == source_id_;
  if (!same_cloud) {
    // Scrub once per bound cloud: the index, the feature queries, the
    // repair estimates and the value pinning all see the scrubbed copy.
    cloud_ = cloud.scrubbed(scrubbed_nonfinite_, scrubbed_duplicates_);
    source_id_ = cloud.id();
    input_points_ = cloud.size();
    index_.reset();
  }
  // Resolve Auto against this call's workload, so the same cloud probed
  // sparsely after a dense sweep (or the reverse) gets the index that
  // suits it; the common repeated workload keeps its cache hit.
  const IndexKind want =
      kind == IndexKind::Auto
          ? vf::spatial::select_index_kind(cloud_.size(), expected_queries)
          : kind;
  if (index_ != nullptr && want == kind_) return;
  VF_OBS_SPAN("tree_build");
  VF_OBS_COUNT("core.bind.index_builds", 1);
  index_ = vf::spatial::build_index(cloud_.points(), want, expected_queries);
  kind_ = want;
  ++builds_;
}

ReconstructReport BoundCloud::report() const {
  ReconstructReport report;
  report.input_points = input_points_;
  report.scrubbed_nonfinite = scrubbed_nonfinite_;
  report.scrubbed_duplicates = scrubbed_duplicates_;
  return report;
}

std::size_t predict_points(const PackedModel& model,
                           const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const Vec3* points, std::size_t count, double* out,
                           PointScratch& scratch,
                           std::vector<std::size_t>* repaired_rows) {
  if (count == 0) return 0;
  {
    VF_OBS_SPAN("extract_features");
    extract_features_into(index, values, points, count, scratch.X,
                          scratch.features);
  }
  {
    VF_OBS_SPAN("inference");
    model.in_norm.apply(scratch.X);
    model.net.infer(scratch.X, scratch.Y, scratch.quant);
  }
  const double scale = model.out_norm.stddev[0];
  const double shift = model.out_norm.mean[0];
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double y = scratch.Y(i, 0) * scale + shift;
    if (std::isfinite(y)) {
      out[i] = y;
    } else {
      out[i] = vf::interp::modified_shepard(index, values, points[i],
                                            scratch.repair);
      ++degraded;
      if (repaired_rows != nullptr) repaired_rows->push_back(i);
    }
  }
  return degraded;
}

std::size_t predict_points(const FcnnModel& model,
                           const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const Vec3* points, std::size_t count, double* out,
                           PointScratch& scratch,
                           std::vector<std::size_t>* repaired_rows) {
  return predict_points(PackedModel(model, vf::nn::QuantPolicy::None), index,
                        values, points, count, out, scratch, repaired_rows);
}

}  // namespace vf::core
