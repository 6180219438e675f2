// Extensions demo: the vf::api::Pipeline in-situ facade, temporal-delta
// sampling, and deep-ensemble uncertainty.
//
//   1. Stream a few simulation steps through api::Pipeline (pretrain once,
//      Case-1 fine-tune afterwards in a background worker) and report each
//      step's reconstruction SNR from its archived cloud.
//   2. Compare archival samplers on the final step: importance vs
//      temporal-delta (which steers budget to the regions that changed),
//      reconstructed with the pipeline's current model.
//   3. Train a small deep ensemble and report where its uncertainty is
//      highest relative to the actual error.
//
// Run:  ./uncertainty_pipeline [--steps 3] [--members 3]

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "vf/api/pipeline.hpp"
#include "vf/api/reconstruct.hpp"
#include "vf/core/ensemble.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/sampling/temporal_sampler.hpp"
#include "vf/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace vf;
  util::Cli cli(argc, argv);
  const int steps = cli.get_int("steps", 3);
  auto ds = data::make_dataset("hurricane");
  const field::Dims dims{48, 48, 12};
  auto workdir =
      std::filesystem::temp_directory_path() / "voidfill_uncertainty";

  // --- 1. in-situ pipeline over a few steps -------------------------------
  api::PipelineConfig cfg;
  cfg.with_dataset("hurricane")
      .with_dims(dims)
      .with_sample_fraction(0.03)
      .with_pretrain_epochs(cli.get_int("epochs", 25))
      .with_epochs_per_step(10)
      .with_max_steps(steps)
      .with_workdir(workdir.string());
  cfg.stride = 8.0;
  cfg.hidden = {64, 32};
  cfg.max_train_rows = 8000;
  cfg.on_step = [](const vf::pipeline::StepReport& r) {
    std::printf("  t=%2d  train %5.1fs  SNR %.2f dB  classical %.2f dB\n",
                r.step, r.train_seconds, r.model_snr_db,
                r.classical_snr_db);
  };

  std::printf("in-situ pipeline (archive @%.0f%%):\n",
              cfg.sample_fraction * 100);
  api::Pipeline pipe(cfg);
  while (pipe.step()) {
  }
  pipe.drain();

  // --- 2. temporal-delta vs importance sampling ---------------------------
  auto prev = ds->generate(dims, (steps - 2) * 8.0);
  auto cur = ds->generate(dims, (steps - 1) * 8.0);
  sampling::ImportanceSampler imp;
  sampling::TemporalDeltaSampler tds;
  tds.set_previous(prev);
  auto cloud_imp = imp.sample(cur, 0.03, 7);
  auto cloud_tds = tds.sample(cur, 0.03, 7);
  // Reconstruct both clouds with the pipeline's current (latest fine-tuned)
  // model through the reconstruction facade.
  auto model = pipe.model();
  api::ReconstructOptions ropt;
  ropt.method = api::Method::FcnnStream;
  ropt.model = model.get();
  api::Reconstructor rec(ropt);
  auto rec_imp = rec.reconstruct(cloud_imp, cur.grid()).field;
  auto rec_tds = rec.reconstruct(cloud_tds, cur.grid()).field;
  std::printf("\narchival sampler comparison at t=%d (same model):\n"
              "  importance      SNR %.2f dB\n"
              "  temporal-delta  SNR %.2f dB\n",
              steps - 1, field::snr_db(cur, rec_imp),
              field::snr_db(cur, rec_tds));

  // --- 3. ensemble uncertainty --------------------------------------------
  core::FcnnConfig ecfg;
  ecfg.hidden = {64, 32};
  ecfg.epochs = std::max(10, cli.get_int("epochs", 25) / 2);
  ecfg.max_train_rows = 8000;
  auto ens = core::EnsembleReconstructor::pretrain(
      cur, imp, ecfg, cli.get_int("members", 3));
  auto res = ens.reconstruct(cloud_imp, cur.grid());
  std::printf("\nensemble of %zu: mean SNR %.2f dB\n", ens.size(),
              field::snr_db(cur, res.mean));

  // Error inside vs outside the top-decile-uncertainty voxels.
  std::vector<std::pair<double, double>> sd_err;
  for (std::int64_t i = 0; i < cur.size(); ++i) {
    sd_err.emplace_back(res.stddev[i], std::abs(cur[i] - res.mean[i]));
  }
  std::sort(sd_err.begin(), sd_err.end(),
            [](auto& a, auto& b) { return a.first > b.first; });
  std::size_t decile = sd_err.size() / 10;
  double err_top = 0, err_rest = 0;
  for (std::size_t i = 0; i < sd_err.size(); ++i) {
    (i < decile ? err_top : err_rest) += sd_err[i].second;
  }
  err_top /= static_cast<double>(decile);
  err_rest /= static_cast<double>(sd_err.size() - decile);
  std::printf("mean |error|: top-uncertainty decile %.4f vs rest %.4f "
              "(ratio %.2fx)\n", err_top, err_rest, err_top / err_rest);
  std::printf("-> the ensemble knows where it is unsure.\n");
  std::filesystem::remove_all(workdir);
  return 0;
}
