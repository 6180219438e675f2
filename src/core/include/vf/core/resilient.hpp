#pragma once
// Never-throw reconstruction entry point.
//
// reconstruct_resilient() is the production face of the library: given a
// model path and an archived cloud it always produces a field on valid
// inputs, degrading stepwise instead of failing —
//   1. unusable samples (non-finite, duplicated) are scrubbed on ingest;
//   2. a missing/corrupt model file drops the whole reconstruction to the
//      modified Shepard grid (vf::interp::ShepardReconstructor);
//   3. individual non-finite network outputs are replaced per point by the
//      same modified Shepard estimate (vf::interp::modified_shepard).
// Every decision is accounted for in the ReconstructReport.

#include <string>

#include "vf/core/options.hpp"
#include "vf/core/report.hpp"
#include "vf/field/scalar_field.hpp"
#include "vf/sampling/sample_cloud.hpp"

namespace vf::core {

/// Reconstruct `grid` from `cloud` with the model stored at `model_path`,
/// degrading gracefully per the module comment. Throws only on invalid
/// arguments (empty cloud, zero-point grid) — never on corrupt inputs.
/// `engine` tunes the FCNN path (tile size, quantization policy, neighbour
/// index kind); the classical fallback stays fp64 regardless.
[[nodiscard]] vf::field::ScalarField reconstruct_resilient(
    const std::string& model_path, const vf::sampling::SampleCloud& cloud,
    const vf::field::UniformGrid3& grid, ReconstructReport& report,
    const ReconstructOptions& engine = {});

}  // namespace vf::core
