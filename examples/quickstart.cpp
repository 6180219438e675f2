// Quickstart: the complete voidfill workflow in ~40 lines.
//
//   1. Generate one timestep of the Hurricane Isabel stand-in.
//   2. Importance-sample it down to 1% of the grid points.
//   3. Pretrain the paper's FCNN on the 1%+5% void sets of that timestep.
//   4. Reconstruct the full volume from the 1% cloud.
//   5. Compare against Delaunay linear interpolation by SNR.
//
// Run:  ./quickstart [--dims 64x64x16] [--epochs 20]

#include <cstdio>

#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/cli.hpp"
#include "vf/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace vf;
  util::Cli cli(argc, argv);

  // 1. One timestep of ground truth (in situ, this is the live sim output).
  auto dataset = data::make_dataset("hurricane");
  field::Dims dims{cli.get_int("nx", 64), cli.get_int("ny", 64),
                   cli.get_int("nz", 16)};
  auto truth = dataset->generate(dims, /*t=*/24.0);
  std::printf("ground truth: %s\n", truth.grid().describe().c_str());

  // 2. Data-driven sampling (Biswas-style importance sampling).
  sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, /*fraction=*/0.01, /*seed=*/1);
  std::printf("sampled %zu points (%.2f%% of the grid)\n", cloud.size(),
              cloud.sampling_fraction() * 100.0);

  // 3. Pretrain the FCNN on this timestep (1%+5% training mix).
  core::FcnnConfig cfg;
  cfg.epochs = cli.get_int("epochs", 25);
  cfg.max_train_rows = 12000;  // keep the demo snappy on one core
  util::Timer timer;
  auto pretrained = core::pretrain(truth, sampler, cfg);
  std::printf("trained %zu-parameter FCNN on %zu rows in %.1fs "
              "(loss %.4f -> %.4f)\n",
              pretrained.model.net.parameter_count(), pretrained.train_rows,
              timer.seconds(), pretrained.history.train_loss.front(),
              pretrained.history.train_loss.back());

  // 4. Reconstruct the full grid from the sparse cloud, through the
  //    vf::api facade — the library's one front door for reconstruction.
  api::ReconstructOptions fcnn_opts;
  fcnn_opts.method = api::Method::FcnnStream;
  fcnn_opts.model = &pretrained.model;
  auto recon = api::Reconstructor(fcnn_opts).reconstruct(cloud, truth.grid());

  // 5. Compare against the strongest classical baseline (same facade,
  //    different Method).
  api::ReconstructOptions linear_opts;
  linear_opts.method = api::Method::Linear;
  auto linear =
      api::Reconstructor(linear_opts).reconstruct(cloud, truth.grid());

  std::printf("\n%-10s %10s %10s\n", "method", "SNR [dB]", "time [s]");
  std::printf("%-10s %10.2f %10.2f\n", "fcnn",
              field::snr_db(truth, recon.field), recon.stats.seconds);
  std::printf("%-10s %10.2f %10.2f\n", "linear",
              field::snr_db(truth, linear.field), linear.stats.seconds);
  return 0;
}
