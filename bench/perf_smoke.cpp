// perf_smoke — the CI perf-regression probe.
//
// Runs one small, fixed workload per performance-critical subsystem (GEMM,
// fused dense layer, k-d tree build/query, feature extraction, tiled grid
// reconstruction) and writes one vf::obs::BenchRecorder JSON
// record. The headline `metrics` map (throughputs, higher is better) is
// what .github/workflows/perf.yml feeds to tools/compare_perf.py against
// bench_baselines/ci_baseline.json.
//
//   perf_smoke [--out FILE] [--repeat N]
//
// Each workload runs N times (default 3) and reports the best repeat, so a
// single scheduler hiccup on a shared CI runner doesn't read as a
// regression. Workload sizes are fixed — never scale them with the host,
// or the baseline comparison is meaningless.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>

#include "common.hpp"
#include "vf/api/pipeline.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/nn/kernels.hpp"
#include "vf/nn/matrix.hpp"
#include "vf/obs/obs.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/serve/router.hpp"
#include "vf/spatial/grid_hash.hpp"
#include "vf/spatial/kdtree.hpp"
#include "vf/util/cli.hpp"
#include "vf/util/rng.hpp"

namespace {

using vf::field::Vec3;

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed = 7) {
  vf::util::Rng rng(seed);
  std::vector<Vec3> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  return pts;
}

/// Run `fn` `repeat` times; record the best wall time as one phase and
/// return items/best_seconds (the headline throughput).
template <typename Fn>
double run_phase(vf::obs::BenchRecorder& rec, const std::string& name,
                 double items, int repeat, Fn&& fn) {
  double best_wall = std::numeric_limits<double>::infinity();
  double best_cpu = 0.0;
  for (int i = 0; i < repeat; ++i) {
    const double cpu0 = vf::obs::process_cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double cpu = vf::obs::process_cpu_seconds() - cpu0;
    if (wall < best_wall) {
      best_wall = wall;
      best_cpu = cpu;
    }
  }
  vf::obs::BenchPhase phase;
  phase.name = name;
  phase.wall_seconds = best_wall;
  phase.cpu_seconds = best_cpu;
  phase.items = items;
  rec.add_phase(phase);
  const double rate = best_wall > 0.0 ? items / best_wall : 0.0;
  std::printf("%-24s %8.3fms  %12.3g items/s\n", name.c_str(),
              best_wall * 1e3, rate);
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  const vf::util::Cli cli(argc, argv);
  const std::string out = cli.get("out", "perf_smoke.json");
  const int repeat = std::max(1, cli.get_int("repeat", 3));

  // The probe times raw kernel cost; keep the observability layer's own
  // (tiny) overhead out of the measurement.
  vf::obs::set_enabled(false);

  vf::obs::BenchRecorder rec("perf_smoke");

  {  // Blocked GEMM at the headline rectangular shape (FLOPs/s).
    constexpr std::size_t m = 1024, n = 512, k = 256;
    vf::nn::Matrix a(m, k, 0.5), b(k, n, 0.25), c;
    rec.set_metric("gemm_gflops",
                   run_phase(rec, "gemm_1024x512x256",
                             2.0 * static_cast<double>(m * n * k), repeat,
                             [&] { vf::nn::gemm(a, b, c); }) *
                       1e-9);
  }

  {  // Fused GEMM + bias + ReLU on one streaming inference tile.
    constexpr std::size_t rows = 8192, cols = 512, feat = 23;
    vf::nn::Matrix x(rows, feat, 0.5), w(feat, cols, 0.1), bias(1, cols, 0.01),
        y;
    rec.set_metric("fused_dense_gflops",
                   run_phase(rec, "fused_dense_8192",
                             2.0 * static_cast<double>(rows * cols * feat),
                             repeat,
                             [&] {
                               vf::nn::fused_dense_forward(x, w, bias,
                                                           /*relu=*/true, y);
                             }) *
                       1e-9);
  }

  {  // k-d tree construction and 5-NN queries.
    constexpr std::size_t n = 100000;
    const auto pts = random_points(n);
    rec.set_metric("kdtree_build_points_per_second",
                   run_phase(rec, "kdtree_build_100k",
                             static_cast<double>(n), repeat, [&] {
                               const vf::spatial::KdTree tree(pts);
                               if (tree.size() != n) std::abort();
                             }));

    const vf::spatial::KdTree tree(pts);
    constexpr std::size_t queries = 100000;
    const auto qs = random_points(queries, 11);
    std::vector<vf::spatial::Neighbor> buf;
    rec.set_metric("knn_queries_per_second",
                   run_phase(rec, "kdtree_knn5_100k",
                             static_cast<double>(queries), repeat, [&] {
                               for (const auto& q : qs) tree.knn(q, 5, buf);
                             }));

    // Grid-hash batched 5-NN over grid-ordered queries — the engines'
    // dense-sweep workload, where the cell sweep amortises candidate
    // gathering across adjacent queries.
    const vf::spatial::GridHashIndex grid_index(pts);
    std::vector<Vec3> sweep;
    sweep.reserve(50 * 50 * 40);
    for (int z = 0; z < 40; ++z) {
      for (int y = 0; y < 50; ++y) {
        for (int x = 0; x < 50; ++x) {
          sweep.push_back({x / 49.0, y / 49.0, z / 39.0});
        }
      }
    }
    std::vector<std::uint32_t> nidx(sweep.size() * 5);
    std::vector<double> nd2(sweep.size() * 5);
    rec.set_metric(
        "neighbor_queries_per_second",
        run_phase(rec, "grid_hash_knn5_100k",
                  static_cast<double>(sweep.size()), repeat, [&] {
                    grid_index.knn_batch(sweep.data(), sweep.size(), 5,
                                         nidx.data(), nd2.data());
                  }));
  }

  // Shared reconstruction scene: hurricane 48x48x12, 2% importance samples.
  auto ds = vf::data::make_dataset("hurricane");
  const auto truth = ds->generate({48, 48, 12}, 24.0);
  vf::sampling::ImportanceSampler sampler;
  const auto cloud = sampler.sample(truth, 0.02, 1);

  {  // Feature extraction for 10k void points.
    auto voids = cloud.void_indices();
    voids.resize(std::min<std::size_t>(voids.size(), 10000));
    rec.set_metric("feature_extract_rows_per_second",
                   run_phase(rec, "feature_extract_10k",
                             static_cast<double>(voids.size()), repeat, [&] {
                               vf::core::FeatureRequest freq;
                               freq.cloud = &cloud;
                               freq.grid = &truth.grid();
                               freq.indices = &voids;
                               auto X = vf::core::extract_features(freq);
                               if (X.rows() != voids.size()) std::abort();
                             }));
  }

  const auto points = static_cast<double>(truth.size());
  {  // Tiled grid reconstruction at 4096-point tiles, fp64.
    // vf-lint: allow(api-facade) benchmarks the engine directly
    vf::core::FcnnReconstructor brec(
        vf::bench::paper_arch_model(vf::core::kTargetDimGrad),
        vf::core::ReconstructOptions{.tile_size = 4096});
    rec.set_metric("streaming_points_per_second",
                   run_phase(rec, "batch_reconstruct_48", points, repeat,
                             [&] {
                               auto f = brec.reconstruct(cloud, truth.grid());
                               if (f.size() != truth.size()) std::abort();
                             }));
  }

  {  // Whole-grid FCNN reconstruction at the default tile, production fast
    // path: grid-hash neighbour index (Auto resolves to it for the dense
    // sweep) + fp16 packed-GEMM inference. The SNR guardrail suite bounds
    // its quality.
    vf::core::ReconstructOptions fast;
    fast.quant = vf::nn::QuantPolicy::Fp16;
    // vf-lint: allow(api-facade) benchmarks the engine directly
    vf::core::FcnnReconstructor frec(
        vf::bench::paper_arch_model(vf::core::kTargetDimGrad), fast);
    rec.set_metric("fcnn_points_per_second",
                   run_phase(rec, "fcnn_reconstruct_48", points, repeat,
                             [&] {
                               auto f = frec.reconstruct(cloud, truth.grid());
                               if (f.size() != truth.size()) std::abort();
                             }));
  }

  {  // Whole-grid FCNN reconstruction at the default tile, exact fp64 path
    // (kept gated so the fast path can never silently replace a regressed
    // exact path).
    // vf-lint: allow(api-facade) benchmarks the engine directly
    vf::core::FcnnReconstructor frec(
        vf::bench::paper_arch_model(vf::core::kTargetDimGrad));
    rec.set_metric("fcnn_fp64_points_per_second",
                   run_phase(rec, "fcnn_reconstruct_fp64_48", points, repeat,
                             [&] {
                               auto f = frec.reconstruct(cloud, truth.grid());
                               if (f.size() != truth.size()) std::abort();
                             }));
  }

  {  // Micro-batched point serving: 4 closed-loop clients against one
    // session behind a single-shard router (the vf::serve production
    // entry point, scaled to a CI runner).
    const auto model_dir =
        std::filesystem::temp_directory_path() / "vf_perf_smoke_serve";
    std::filesystem::create_directories(model_dir);
    const std::string model_path = (model_dir / "model.vfmd").string();
    vf::bench::paper_arch_model(vf::core::kTargetDimGrad).save(model_path);

    vf::serve::ShardRouter service;
    service.add_session("t0", cloud, model_path);
    const auto bounds = truth.grid().bounds();
    constexpr int kClients = 4;
    constexpr int kQueriesPerClient = 100;
    constexpr std::size_t kPointsPerQuery = 4;
    rec.set_metric(
        "serve_queries_per_second",
        run_phase(rec, "serve_batched_4x100",
                  static_cast<double>(kClients * kQueriesPerClient), repeat,
                  [&] {
                    std::vector<std::thread> clients;
                    for (int c = 0; c < kClients; ++c) {
                      clients.emplace_back([&service, &bounds, c] {
                        vf::util::Rng rng(
                            static_cast<std::uint64_t>(100 + c));
                        std::vector<Vec3> pts(kPointsPerQuery);
                        for (int i = 0; i < kQueriesPerClient; ++i) {
                          for (auto& p : pts) {
                            p = {rng.uniform(bounds.min.x, bounds.max.x),
                                 rng.uniform(bounds.min.y, bounds.max.y),
                                 rng.uniform(bounds.min.z, bounds.max.z)};
                          }
                          for (;;) {
                            auto f = service.submit("t0", pts);
                            if (f) {
                              if (f->get().values.size() != kPointsPerQuery) {
                                std::abort();
                              }
                              break;
                            }
                            std::this_thread::yield();  // shed: retry
                          }
                        }
                      });
                    }
                    for (auto& t : clients) t.join();
                  }));
    std::filesystem::remove_all(model_dir);
  }

  {  // In-situ streaming pipeline: sample -> fine-tune -> hot-swap -> score,
    // end to end on a tiny ionization stream. The step rate bounds how fast
    // the pipeline can keep up with a simulation at these training knobs;
    // a regression here means the per-step loop (sampling, feature
    // assembly, fine-tune, checkpoint, publish) got slower. The workdir is
    // wiped per repeat so checkpoint resume can't fast-forward later
    // repeats.
    const auto workdir =
        std::filesystem::temp_directory_path() / "vf_perf_smoke_pipeline";
    constexpr int kSteps = 6;
    rec.set_metric(
        "pipeline_steps_per_second",
        run_phase(rec, "pipeline_stream_6", static_cast<double>(kSteps),
                  repeat, [&] {
                    std::filesystem::remove_all(workdir);
                    vf::api::PipelineConfig cfg;
                    cfg.with_dataset("ionization")
                        .with_dims({16, 16, 8})
                        .with_sample_fraction(0.05)
                        .with_pretrain_epochs(4)
                        .with_epochs_per_step(2)
                        .with_max_steps(kSteps)
                        .with_workdir(workdir.string());
                    cfg.hidden = {8};
                    cfg.max_train_rows = 600;
                    vf::api::Pipeline pipe(cfg);
                    while (pipe.step()) {
                    }
                    pipe.drain();
                    if (pipe.stats().steps_ingested != kSteps) std::abort();
                  }));
    std::filesystem::remove_all(workdir);
  }

  rec.write(out);
  std::printf("wrote %s (%d repeats, best-of)\n", out.c_str(), repeat);
  return 0;
}
