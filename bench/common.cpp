#include "common.hpp"

#include <cstdio>

#include "vf/util/env.hpp"
#include "vf/util/timer.hpp"

namespace vf::bench {

vf::field::Dims bench_dims(const vf::data::Dataset& ds) {
  if (vf::util::full_scale()) return ds.paper_dims();
  // Per-dataset divisors chosen so each bench grid lands in the
  // ~100k point range on a single core.
  int div = 3;
  if (ds.name() == "combustion") div = 4;
  if (ds.name() == "ionization") div = 7;
  if (vf::util::quick_mode()) div *= 2;
  return vf::data::scaled_dims(ds, div);
}

std::vector<double> paper_fractions() {
  if (vf::util::quick_mode()) return {0.001, 0.01, 0.05};
  return {0.001, 0.005, 0.01, 0.02, 0.03, 0.05};
}

vf::core::FcnnConfig bench_config() { return vf::core::FcnnConfig::bench(); }

int timestep_stride() {
  if (vf::util::full_scale()) return 1;
  return vf::util::quick_mode() ? 12 : 4;
}

vf::core::FcnnModel paper_arch_model(int outputs) {
  const auto width = static_cast<std::size_t>(outputs);
  vf::core::FcnnModel model;
  model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(vf::core::kFeatureDim),
      vf::core::FcnnConfig{}.hidden, width, 42);
  model.in_norm.mean.assign(vf::core::kFeatureDim, 0.0);
  model.in_norm.stddev.assign(vf::core::kFeatureDim, 1.0);
  model.out_norm.mean.assign(width, 0.0);
  model.out_norm.stddev.assign(width, 1.0);
  model.with_gradients = outputs == vf::core::kTargetDimGrad;
  return model;
}

void title(const std::string& text) {
  std::printf("\n%s\n", text.c_str());
  for (std::size_t i = 0; i < text.size(); ++i) std::putchar('-');
  std::putchar('\n');
}

void row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) {
    // Pad to 13 columns but never truncate; keep at least one separator
    // space after long cells so columns stay parseable.
    std::printf("%-13s", c.c_str());
    if (c.size() >= 13) std::putchar(' ');
  }
  std::putchar('\n');
  std::fflush(stdout);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g%%", fraction * 100.0);
  return buf;
}

}  // namespace vf::bench
