#include "vf/core/ensemble.hpp"

#include <cmath>
#include <stdexcept>

#include "vf/util/parallel.hpp"

namespace vf::core {

using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::sampling::SampleCloud;
using vf::sampling::Sampler;

EnsembleReconstructor EnsembleReconstructor::pretrain(
    const ScalarField& truth, const Sampler& sampler, FcnnConfig config,
    int members) {
  if (members < 1) {
    throw std::invalid_argument("EnsembleReconstructor: members must be >= 1");
  }
  std::vector<FcnnModel> models;
  models.reserve(static_cast<std::size_t>(members));
  for (int m = 0; m < members; ++m) {
    auto cfg = config;
    // Independent weight init + shuffle order; the sampled training data
    // also re-draws, adding data diversity across members.
    cfg.seed = config.seed + 7919ull * static_cast<std::uint64_t>(m + 1);
    models.push_back(core::pretrain(truth, sampler, cfg).model);
  }
  return EnsembleReconstructor(std::move(models));
}

EnsembleReconstructor::EnsembleReconstructor(std::vector<FcnnModel> models)
    : members_(std::move(models)) {
  if (members_.empty()) {
    throw std::invalid_argument("EnsembleReconstructor: no members");
  }
}

void EnsembleReconstructor::fine_tune(const ScalarField& truth,
                                      const Sampler& sampler,
                                      const FcnnConfig& config, int epochs) {
  for (std::size_t m = 0; m < members_.size(); ++m) {
    auto cfg = config;
    cfg.seed = config.seed + 104729ull * (m + 1);
    core::fine_tune(members_[m], truth, sampler, cfg,
                    FineTuneMode::FullNetwork, epochs);
  }
}

EnsembleResult EnsembleReconstructor::reconstruct(const SampleCloud& cloud,
                                                  const UniformGrid3& grid) {
  EnsembleResult out{ScalarField(grid, "fcnn_ensemble_mean"),
                     ScalarField(grid, "fcnn_ensemble_stddev")};
  const auto n = grid.point_count();
  std::vector<double> sum(static_cast<std::size_t>(n), 0.0);
  std::vector<double> sumsq(static_cast<std::size_t>(n), 0.0);

  // One scrub and index for every member.
  BoundCloud bound;
  bound.bind(cloud, vf::spatial::IndexKind::Auto,
             static_cast<std::size_t>(n));
  for (const auto& model : members_) {
    FcnnReconstructor rec(model);
    ReconstructReport report;
    auto field = rec.reconstruct(bound, grid, report);
    for (std::int64_t i = 0; i < n; ++i) {
      sum[static_cast<std::size_t>(i)] += field[i];
      sumsq[static_cast<std::size_t>(i)] += field[i] * field[i];
    }
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  vf::util::parallel_for(0, n, [&](std::int64_t i) {
    auto ui = static_cast<std::size_t>(i);
    double mean = sum[ui] * inv;
    double var = std::max(sumsq[ui] * inv - mean * mean, 0.0);
    out.mean[i] = mean;
    out.stddev[i] = std::sqrt(var);
  });
  return out;
}

}  // namespace vf::core
