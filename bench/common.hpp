#pragma once
// Shared harness code for the per-figure/per-table benchmarks.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (see DESIGN.md §4). Scales:
//   default        — reduced grids (runs on a laptop core in minutes),
//   VF_QUICK=1     — smoke-test scale,
//   VF_FULL_SCALE=1— the paper's resolutions and 500-epoch training.
// The absolute numbers shift with scale; the qualitative shapes (who wins,
// how series move) are what each bench reports.

#include <memory>
#include <string>
#include <vector>

#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/interp/reconstructor.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/cli.hpp"
#include "vf/util/env.hpp"
#include "vf/util/log.hpp"
#include "vf/util/timer.hpp"

namespace vf::bench {

/// Bench grid for a dataset at the current scale.
vf::field::Dims bench_dims(const vf::data::Dataset& ds);

/// The sampling fractions the paper sweeps (0.1% .. 5%).
std::vector<double> paper_fractions();

/// FcnnConfig for the current scale (wraps FcnnConfig::bench()).
vf::core::FcnnConfig bench_config();

/// Timestep-step for sweeps over all timesteps at the current scale.
int timestep_stride();

/// An untrained model of the paper's architecture with `outputs` targets
/// (vf::core::kTargetDimGrad, or kTargetDimScalar for a model without the
/// gradient head) and identity normalisation. Inference, serving and model
/// I/O cost the same whether or not the weights are trained.
vf::core::FcnnModel paper_arch_model(int outputs);

/// Print an underlined section title.
void title(const std::string& text);

/// Print a row of cells padded to width 12 ("  " separated).
void row(const std::vector<std::string>& cells);

/// Format helpers.
std::string fmt(double v, int precision = 2);
std::string pct(double fraction);  // 0.01 -> "1%"

/// Wall-clock a callable, returning seconds.
template <typename F>
double timed(F&& f) {
  vf::util::Timer t;
  f();
  return t.seconds();
}

}  // namespace vf::bench
