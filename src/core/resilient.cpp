#include "vf/core/resilient.hpp"

#include <exception>
#include <stdexcept>

#include "vf/core/fcnn.hpp"
#include "vf/core/features.hpp"
#include "vf/core/inference.hpp"
#include "vf/core/model.hpp"
#include "vf/interp/reconstructor.hpp"
#include "vf/obs/obs.hpp"

namespace vf::core {

using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::sampling::SampleCloud;

const char* to_string(FallbackReason reason) {
  switch (reason) {
    case FallbackReason::None:
      return "none";
    case FallbackReason::ModelLoadFailed:
      return "model-load-failed";
    case FallbackReason::NonFiniteOutput:
      return "non-finite-output";
    case FallbackReason::NoUsableSamples:
      return "no-usable-samples";
  }
  return "unknown";
}

std::string ReconstructReport::summary() const {
  std::string s = "reconstruct: " + std::to_string(input_points) + " samples";
  if (scrubbed_nonfinite > 0) {
    s += ", scrubbed " + std::to_string(scrubbed_nonfinite) + " non-finite";
  }
  if (scrubbed_duplicates > 0) {
    s += ", scrubbed " + std::to_string(scrubbed_duplicates) + " duplicates";
  }
  s += ", " + std::to_string(predicted_points) + " predicted";
  if (degraded_points > 0) {
    s += ", " + std::to_string(degraded_points) + " degraded (" +
         to_string(fallback) + ")";
  }
  if (!detail.empty()) s += " [" + detail + "]";
  return s;
}

namespace {

/// Fill `grid` with the modified Shepard grid from `clean` via the shared
/// vf::interp factory; kept samples are re-pinned to their stored values
/// when the grids match (the interpolator is free to smooth over them).
ScalarField classical_fill(const SampleCloud& clean, const UniformGrid3& grid,
                           ReconstructReport& report) {
  VF_OBS_SPAN("classical_fill");
  VF_OBS_COUNT("core.resilient.fallbacks", 1);
  ScalarField out = vf::interp::make_interpolator(vf::interp::Method::Shepard)
                        ->reconstruct(clean, grid);
  out.set_name("fcnn");

  if (clean.has_grid() && clean.grid() == grid) {
    const auto& kept = clean.kept_indices();
    const auto& values = clean.values();
    for (std::size_t i = 0; i < kept.size(); ++i) out[kept[i]] = values[i];
    report.degraded_points +=
        static_cast<std::size_t>(grid.point_count()) - kept.size();
  } else {
    report.degraded_points += static_cast<std::size_t>(grid.point_count());
  }
  return out;
}

}  // namespace

ScalarField reconstruct_resilient(const std::string& model_path,
                                  const SampleCloud& cloud,
                                  const UniformGrid3& grid,
                                  ReconstructReport& report,
                                  const ReconstructOptions& engine) {
  if (cloud.size() == 0) {
    throw std::invalid_argument("reconstruct_resilient: empty cloud");
  }
  if (grid.point_count() <= 0) {
    throw std::invalid_argument("reconstruct_resilient: empty grid");
  }
  // Scrub and index once: the FCNN engine queries this binding, and the
  // classical fallback fills from the same scrubbed cloud.
  BoundCloud bound;
  bound.bind(cloud, engine.index, static_cast<std::size_t>(grid.point_count()));
  report = bound.report();
  const SampleCloud& clean = bound.cloud();

  if (clean.size() == 0) {
    // Nothing usable at all: a constant field is the only honest answer.
    report.fallback = FallbackReason::NoUsableSamples;
    report.detail = "every sample was scrubbed";
    report.degraded_points = static_cast<std::size_t>(grid.point_count());
    return ScalarField(grid, "fcnn");
  }

  if (clean.size() >= static_cast<std::size_t>(kNeighbors)) {
    try {
      FcnnReconstructor rec(FcnnModel::load(model_path), engine);
      return rec.reconstruct(bound, grid, report);
    } catch (const std::exception& e) {
      report = bound.report();  // discard any partial inner accounting
      report.fallback = FallbackReason::ModelLoadFailed;
      report.detail = e.what();
    }
  } else {
    report.fallback = FallbackReason::NoUsableSamples;
    report.detail = "fewer usable samples than the feature stencil needs";
  }
  ScalarField out = classical_fill(clean, grid, report);
  VF_OBS_COUNT("core.resilient.degraded_points", report.degraded_points);
  return out;
}

}  // namespace vf::core
