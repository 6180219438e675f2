// Ablation (design choice from §III-D): how many nearest sampled points
// should feed the feature vector? The paper fixes k = 5 (23-dim features);
// this bench sweeps k and reports quality and feature-extraction cost.
// NOTE: k is a compile-time constant of the shipped pipeline; the sweep is
// emulated by masking surplus neighbours, i.e. duplicating the k-th
// neighbour into the unused slots so the information content matches a
// smaller k while the architecture stays fixed.
//
// A second sweep measures the neighbour-index crossover that
// vf::spatial::select_index_kind encodes: exact k-d tree vs grid-hash
// batched sweep at increasing query density against a fixed cloud. Pass
// `--out FILE` to record both sweeps as a vf::obs::BenchRecorder JSON
// (phases per structure x density, `*_qps_*` metrics) for trend tracking.

#include <algorithm>
#include <array>
#include <utility>

#include "common.hpp"
#include "vf/core/features.hpp"
#include "vf/nn/trainer.hpp"
#include "vf/obs/obs.hpp"
#include "vf/spatial/grid_hash.hpp"
#include "vf/spatial/kdtree.hpp"
#include "vf/util/rng.hpp"

namespace {

using vf::field::Vec3;
using vf::nn::Matrix;

/// Rewrite a 23-dim feature matrix so only the first k neighbours carry
/// information (remaining slots repeat neighbour k-1).
void mask_neighbors(Matrix& X, int k) {
  for (std::size_t r = 0; r < X.rows(); ++r) {
    double* row = X.row(r);
    for (int j = k; j < vf::core::kNeighbors; ++j) {
      for (int c = 0; c < 4; ++c) row[4 * j + c] = row[4 * (k - 1) + c];
    }
  }
}

/// Best-of-3 wall seconds (matches perf_smoke's repeat discipline).
template <typename Fn>
double best_of(Fn&& fn) {
  double best = vf::bench::timed(fn);
  for (int i = 0; i < 2; ++i) best = std::min(best, vf::bench::timed(fn));
  return best;
}

/// Exact-kd vs grid-hash 5-NN throughput across query densities against a
/// fixed 100k-point cloud; grid-ordered sweep queries (x fastest), the
/// engines' void-reconstruction access pattern. Records one phase per
/// structure x density into `rec`.
void index_crossover_sweep(vf::obs::BenchRecorder& rec) {
  constexpr std::size_t kPoints = 100000;
  constexpr int k = vf::core::kNeighbors;
  vf::util::Rng rng(7);
  std::vector<Vec3> pts;
  pts.reserve(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  const vf::spatial::KdTree kd(pts);
  const vf::spatial::GridHashIndex grid(pts);

  vf::bench::title("Ablation — neighbour index vs query density (100k cloud)");
  vf::bench::row({"queries", "kd_q/s", "grid_q/s", "grid/kd", "auto"});

  // Grid-ordered sweeps from sparse probing to a denser-than-cloud scan;
  // Auto's crossover (queries * 4 >= points) sits inside the range.
  for (const auto [nx, ny, nz] : {std::array<int, 3>{10, 10, 10},
                                  std::array<int, 3>{25, 25, 16},
                                  std::array<int, 3>{50, 50, 40},
                                  std::array<int, 3>{100, 80, 50}}) {
    std::vector<Vec3> sweep;
    sweep.reserve(static_cast<std::size_t>(nx) * ny * nz);
    for (int z = 0; z < nz; ++z) {
      for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
          sweep.push_back({x / (nx - 1.0), y / (ny - 1.0), z / (nz - 1.0)});
        }
      }
    }
    const std::size_t q = sweep.size();
    std::vector<std::uint32_t> nidx(q * k);
    std::vector<double> nd2(q * k);
    const double kd_s = best_of(
        [&] { kd.knn_batch(sweep.data(), q, k, nidx.data(), nd2.data()); });
    const double grid_s = best_of(
        [&] { grid.knn_batch(sweep.data(), q, k, nidx.data(), nd2.data()); });

    const auto pick = vf::spatial::select_index_kind(kPoints, q);
    const auto queries = static_cast<double>(q);
    vf::bench::row({std::to_string(q), vf::bench::fmt(queries / kd_s, 0),
                    vf::bench::fmt(queries / grid_s, 0),
                    vf::bench::fmt(kd_s / grid_s),
                    vf::spatial::to_string(pick)});
    for (const auto& [name, secs] :
         {std::pair<const char*, double>{"kdtree", kd_s},
          std::pair<const char*, double>{"grid_hash", grid_s}}) {
      vf::obs::BenchPhase phase;
      phase.name = std::string(name) + "_knn5_q" + std::to_string(q);
      phase.wall_seconds = secs;
      phase.items = queries;
      rec.add_phase(phase);
      rec.set_metric(std::string(name) + "_qps_q" + std::to_string(q),
                     queries / secs);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vf;
  util::Cli cli(argc, argv);
  util::set_log_level(util::LogLevel::Warn);
  const std::string out = cli.get("out", "");

  obs::set_enabled(false);  // keep counter overhead out of the timings
  obs::BenchRecorder rec("ablation_knn");
  index_crossover_sweep(rec);

  auto ds = data::make_dataset("hurricane");
  auto truth = ds->generate(bench::bench_dims(*ds), 24.0);
  sampling::ImportanceSampler sampler;
  auto cfg = bench::bench_config();

  bench::title("Ablation — feature neighbours k (hurricane " +
               truth.grid().describe() + ")");
  bench::row({"k", "snr_1%", "snr_5%"});

  for (int k : {1, 2, 3, 5}) {
    // Build the standard training set, then mask down to k neighbours.
    auto set = core::build_training_set(truth, sampler, cfg);
    mask_neighbors(set.X, k);

    core::FcnnModel model;
    model.with_gradients = cfg.with_gradients;
    model.in_norm = core::Normalizer::fit(set.X);
    model.out_norm = core::Normalizer::fit(set.Y);
    model.in_norm.apply(set.X);
    model.out_norm.apply(set.Y);
    model.net = nn::Network::mlp(core::kFeatureDim, cfg.hidden,
                                 core::kTargetDimGrad, cfg.seed);
    nn::TrainOptions topt;
    topt.epochs = cfg.epochs;
    topt.batch_size = cfg.batch_size;
    topt.learning_rate = cfg.learning_rate;
    nn::Trainer trainer(topt);
    trainer.fit(model.net, set.X, set.Y);

    std::vector<std::string> cells = {std::to_string(k)};
    for (double frac : {0.01, 0.05}) {
      auto cloud = sampler.sample(truth, frac, 99);
      auto voids = cloud.void_indices();
      core::FeatureRequest freq;
      freq.cloud = &cloud;
      freq.grid = &truth.grid();
      freq.indices = &voids;
      Matrix X = core::extract_features(freq);
      mask_neighbors(X, k);
      Matrix Y = model.predict(X);
      field::ScalarField recon(truth.grid(), "rec");
      const auto& kept = cloud.kept_indices();
      for (std::size_t i = 0; i < kept.size(); ++i) {
        recon[kept[i]] = cloud.values()[i];
      }
      for (std::size_t i = 0; i < voids.size(); ++i) {
        recon[voids[i]] = Y(i, 0);
      }
      cells.push_back(bench::fmt(field::snr_db(truth, recon)));
    }
    bench::row(cells);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      rec.set_metric("snr_k" + std::to_string(k) + "_f" + std::to_string(i),
                     std::stod(cells[i]));
    }
  }
  if (!out.empty()) rec.write(out);
  return 0;
}
