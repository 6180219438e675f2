// Paper Fig 10 (a-c): reconstruction time vs sampling percentage.
// Series: trained FCNN (the tiled engine: feature extraction + forward
// pass per tile — model training excluded, as in the paper), Delaunay linear with walk hints
// ("linear", the paper's CGAL+OpenMP analogue), the naive cold-location
// variant ("linear_naive", the paper's slow initial implementation),
// natural neighbour, Shepard, nearest.
// Expected shape: FCNN ~flat in sampling % (constant-time reconstruction);
// linear_naive slowest and growing with sample count; linear comparable to
// nearest.

#include "common.hpp"
#include "vf/interp/methods.hpp"

int main(int argc, char** argv) {
  using namespace vf;
  util::Cli cli(argc, argv);
  util::set_log_level(util::LogLevel::Warn);

  sampling::ImportanceSampler sampler;
  std::vector<std::string> methods = {"linear", "linear_naive", "natural",
                                      "shepard", "nearest"};
  auto datasets = cli.has("dataset")
                      ? std::vector<std::string>{cli.get("dataset", "")}
                      : data::dataset_names();

  for (const auto& name : datasets) {
    auto ds = data::make_dataset(name);
    double t = cli.get_double("timestep", ds->timestep_count() / 2.0);
    auto truth = ds->generate(bench::bench_dims(*ds), t);

    auto pre = core::pretrain(truth, sampler, bench::bench_config());
    // vf-lint: allow(api-facade) benchmarks the engine directly
    core::FcnnReconstructor fcnn(std::move(pre.model));

    bench::title("Fig 10 — reconstruction time [s] vs sampling % (" + name +
                 " " + truth.grid().describe() + ")");
    std::vector<std::string> header = {"sampling", "fcnn"};
    header.insert(header.end(), methods.begin(), methods.end());
    bench::row(header);

    for (double frac : bench::paper_fractions()) {
      auto cloud = sampler.sample(truth, frac, 4242);
      std::vector<std::string> cells = {bench::pct(frac)};
      field::ScalarField out;
      cells.push_back(bench::fmt(
          bench::timed([&] { out = fcnn.reconstruct(cloud, truth.grid()); }),
          3));
      for (const auto& m : methods) {
        auto rec = interp::make_reconstructor(m);
        cells.push_back(bench::fmt(
            bench::timed([&] { out = rec->reconstruct(cloud, truth.grid()); }),
            3));
      }
      bench::row(cells);
    }
  }
  return 0;
}
