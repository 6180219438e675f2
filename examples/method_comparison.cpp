// Survey of every reconstruction method in the library (paper §III-B) on a
// chosen dataset and sampling rate: quality (SNR / PSNR / RMSE) and time.
// Includes the RBF variant the paper measured and then excluded for cost.
//
// Run:  ./method_comparison [--dataset combustion] [--fraction 0.01]

#include <cstdio>

#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/interp/reconstructor.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/cli.hpp"
#include "vf/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace vf;
  util::Cli cli(argc, argv);
  const std::string name = cli.get("dataset", "combustion");
  const double fraction = cli.get_double("fraction", 0.01);

  auto dataset = data::make_dataset(name);
  field::Dims dims = data::scaled_dims(*dataset, cli.get_int("divisor", 5));
  auto truth = dataset->generate(dims, dataset->timestep_count() / 2.0);
  std::printf("dataset %s %s, sampling %.2f%%\n", name.c_str(),
              truth.grid().describe().c_str(), fraction * 100);

  sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, fraction, 11);

  core::FcnnConfig cfg;
  cfg.epochs = cli.get_int("epochs", 25);
  cfg.max_train_rows = 10000;
  util::Timer timer;
  auto pre = core::pretrain(truth, sampler, cfg);
  double train_s = timer.seconds();
  api::ReconstructOptions fcnn_opts;
  fcnn_opts.method = api::Method::FcnnStream;
  fcnn_opts.model = &pre.model;
  api::Reconstructor fcnn(fcnn_opts);

  std::printf("\n%-14s %9s %9s %10s %9s\n", "method", "SNR[dB]", "PSNR[dB]",
              "RMSE", "time[s]");
  auto report = [&](const std::string& label,
                    const field::ScalarField& rec, double seconds) {
    std::printf("%-14s %9.2f %9.2f %10.4g %9.2f\n", label.c_str(),
                field::snr_db(truth, rec), field::psnr_db(truth, rec),
                field::rmse(truth, rec), seconds);
  };

  auto rec_fcnn = fcnn.reconstruct(cloud, truth.grid());
  report("fcnn", rec_fcnn.field, rec_fcnn.stats.seconds);

  for (const auto& method : {"linear", "linear_seq", "natural", "shepard",
                             "nearest", "rbf"}) {
    auto r = interp::make_reconstructor(method);
    timer.restart();
    auto rec = r->reconstruct(cloud, truth.grid());
    report(method, rec, timer.seconds());
  }
  std::printf("\n(fcnn one-off training cost: %.1fs, amortised across "
              "timesteps and sampling rates)\n", train_s);
  return 0;
}
