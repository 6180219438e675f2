// SNR-regression guardrail for the quantized inference path (paper metric:
// reconstruction SNR in dB, Table I). For each dataset stand-in a model is
// trained once; the fp64 reconstruction sets the baseline and every
// quantized policy must land within a fixed SNR delta of it. A codec or
// scale bug costs tens of dB and trips these bounds immediately, so
// quantization can never silently degrade reconstruction quality.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/nn/quant.hpp"
#include "vf/sampling/samplers.hpp"

namespace {

using vf::core::FcnnConfig;
using vf::core::FcnnModel;
using vf::core::FcnnReconstructor;
using vf::core::ReconstructOptions;
using vf::field::ScalarField;
using vf::nn::QuantPolicy;
using vf::sampling::ImportanceSampler;
using vf::sampling::SampleCloud;

/// Maximum SNR the fp16 path may give up against fp64. One binary16
/// rounding is ~2^-11 relative — far below model error — so the observed
/// delta is typically < 0.1 dB.
constexpr double kFp16DeltaDb = 0.5;
/// Int8's per-row activation grid is coarser; allow more but still catch
/// broken scales (which cost tens of dB).
constexpr double kInt8DeltaDb = 3.0;

struct Guardrail {
  ScalarField truth;
  SampleCloud cloud;
  FcnnModel model;
};

Guardrail make_guardrail(const std::string& dataset) {
  auto ds = vf::data::make_dataset(dataset);
  Guardrail g{ds->generate({16, 16, 8}, 10.0), SampleCloud{}, FcnnModel{}};
  FcnnConfig cfg;
  cfg.hidden = {48, 24};
  cfg.epochs = 150;
  cfg.max_train_rows = 6000;
  cfg.train_fractions = {0.05};
  ImportanceSampler sampler;
  g.model = pretrain(g.truth, sampler, cfg).model;
  g.cloud = sampler.sample(g.truth, 0.05, 21);
  return g;
}

double snr_with_policy(const Guardrail& g, QuantPolicy policy) {
  ReconstructOptions opts;
  opts.quant = policy;
  FcnnReconstructor rec(g.model.clone(), opts);
  ScalarField out = rec.reconstruct(g.cloud, g.truth.grid());
  return vf::field::snr_db(g.truth, out);
}

class QuantSnrGuardrail : public ::testing::TestWithParam<std::string> {};

TEST_P(QuantSnrGuardrail, QuantizedSnrStaysWithinDeltaOfFp64) {
  const Guardrail g = make_guardrail(GetParam());
  const double base = snr_with_policy(g, QuantPolicy::None);
  const double fp32 = snr_with_policy(g, QuantPolicy::Fp32);
  const double fp16 = snr_with_policy(g, QuantPolicy::Fp16);
  const double int8 = snr_with_policy(g, QuantPolicy::Int8);

  // The reconstruction must be meaningful at all (a broken pipeline gives
  // SNR near or below 0 dB) before deltas are worth comparing.
  ASSERT_GT(base, 3.0) << "fp64 baseline reconstruction is broken";
  EXPECT_GE(fp32, base - 0.1)
      << "fp32 SNR " << fp32 << " dB vs fp64 " << base << " dB";
  EXPECT_GE(fp16, base - kFp16DeltaDb)
      << "fp16 SNR " << fp16 << " dB vs fp64 " << base << " dB";
  EXPECT_GE(int8, base - kInt8DeltaDb)
      << "int8 SNR " << int8 << " dB vs fp64 " << base << " dB";
}

INSTANTIATE_TEST_SUITE_P(Datasets, QuantSnrGuardrail,
                         ::testing::Values("hurricane", "combustion",
                                           "ionization"));

}  // namespace
