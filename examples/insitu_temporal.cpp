// In-situ temporal workflow (paper Experiment 2), driven through the
// vf::api::Pipeline facade.
//
// A simulated run emits one timestep at a time; the pipeline samples each
// step down to the archival fraction, pretrains on the first step, fine-
// tunes ~10 epochs (Case 1) on every later one in a background worker, and
// hot-swaps each fine-tuned model into its embedded serve tier. The
// per-step callback compares the streaming model against a frozen copy of
// the step-0 weights and a classical baseline, and archives the Case-2
// weight tail (last two dense layers) per step.
//
// Run:  ./insitu_temporal [--steps 6] [--stride 8] [--fraction 0.03]

#include <cstdio>
#include <filesystem>
#include <optional>

#include "vf/api/pipeline.hpp"
#include "vf/api/reconstruct.hpp"
#include "vf/field/metrics.hpp"
#include "vf/interp/methods.hpp"
#include "vf/nn/serialize.hpp"
#include "vf/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace vf;
  util::Cli cli(argc, argv);
  const int steps = cli.get_int("steps", 6);
  const int stride = cli.get_int("stride", 8);
  const double fraction = cli.get_double("fraction", 0.03);

  auto archive = std::filesystem::temp_directory_path() / "voidfill_insitu";
  std::filesystem::create_directories(archive);

  interp::LinearDelaunayReconstructor linear;
  core::FcnnModel frozen;
  std::optional<api::Reconstructor> stale;  // bound to `frozen` after start

  api::PipelineConfig cfg;
  cfg.with_dataset("hurricane")
      .with_dims({64, 64, 16})
      .with_sample_fraction(fraction)
      .with_pretrain_epochs(cli.get_int("epochs", 25))
      .with_epochs_per_step(10)
      .with_max_steps(steps + 1)  // step 0 pretrains; `steps` fine-tune
      .with_workdir((archive / "pipeline").string());
  cfg.stride = stride;
  cfg.hidden = core::FcnnConfig{}.hidden;  // the paper architecture
  cfg.max_train_rows = 10000;
  cfg.on_step = [&](const vf::pipeline::StepReport& r) {
    if (r.step == 0) return;  // the pretrain line is printed below
    // Classical baseline reconstructs from scratch; the frozen step-0
    // model degrades as the storm evolves; the streamed model keeps up.
    const double snr_linear = field::snr_db(
        *r.truth, linear.reconstruct(*r.cloud, r.truth->grid()));
    const double snr_frozen = field::snr_db(
        *r.truth, stale->reconstruct(*r.cloud, r.truth->grid()).field);

    std::printf("%-6.0f %-12.2f %-12.2f %-12.2f gen %llu%s\n", r.t,
                snr_linear, snr_frozen, r.model_snr_db,
                static_cast<unsigned long long>(r.generation),
                r.classical ? "  (classical fallback)" : "");
  };

  api::Pipeline pipe(cfg);
  pipe.start();  // t = 0: synchronous pretrain + first publish
  frozen = pipe.model()->clone();
  api::ReconstructOptions frozen_opts;
  frozen_opts.method = api::Method::FcnnStream;
  frozen_opts.model = &frozen;
  stale.emplace(frozen_opts);
  std::printf("t=0: pretrained, generation %llu published\n",
              static_cast<unsigned long long>(pipe.generation()));

  std::printf("\n%-6s %-12s %-12s %-12s\n", "t", "linear", "frozen",
              "fine-tuned");
  while (pipe.step()) {
  }
  pipe.drain();

  // Case-2 storage comparison on the final model: the per-step tail is a
  // small fraction of the full model.
  auto final_model = pipe.model();
  const auto tail_path = (archive / "tail_final.vfnt").string();
  nn::save_dense_tail(final_model->net, 2, tail_path);
  const auto full_path = (archive / "model_final.vfmd").string();
  final_model->save(full_path);
  std::printf("\nfull model: %zu bytes; the per-timestep Case-2 tail is "
              "%zu bytes (~%.1f%%).\n",
              static_cast<std::size_t>(std::filesystem::file_size(full_path)),
              static_cast<std::size_t>(std::filesystem::file_size(tail_path)),
              100.0 * static_cast<double>(std::filesystem::file_size(tail_path)) /
                  static_cast<double>(std::filesystem::file_size(full_path)));

  // The serve tier answered queries through every hot swap; ask it once.
  auto resp = pipe.query({{0.5, 0.5, 0.25}});
  std::printf("served query against generation %llu: value %.4f%s\n",
              static_cast<unsigned long long>(pipe.generation()),
              resp.values.empty() ? 0.0 : resp.values[0],
              resp.fallback.empty() ? "" : " (classical)");

  std::filesystem::remove_all(archive);
  return 0;
}
