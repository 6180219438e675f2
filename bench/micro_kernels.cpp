// Google-benchmark micro benchmarks for the performance-critical kernels:
// k-d tree construction/query, batched k-NN on both indexes, GEMM,
// Delaunay insertion + location, the samplers, feature extraction, the
// CRC-32 every file and wire frame carries, and a model load. These track
// regressions in the substrate that every figure-level bench depends on.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "common.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/core/model.hpp"
#include "vf/geometry/delaunay.hpp"
#include "vf/interp/methods.hpp"
#include "vf/nn/kernels.hpp"
#include "vf/nn/matrix.hpp"
#include "vf/nn/network.hpp"
#include "vf/nn/quant.hpp"
#include "vf/spatial/grid_hash.hpp"
#include "vf/spatial/kdtree.hpp"
#include "vf/spatial/neighbor_index.hpp"
#include "vf/util/atomic_io.hpp"
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

void BM_KdTreeBuild(benchmark::State& state) {
  auto pts = random_points(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    vf::spatial::KdTree tree(pts);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_KdTreeKnn5(benchmark::State& state) {
  auto pts = random_points(static_cast<std::size_t>(state.range(0)));
  vf::spatial::KdTree tree(pts);
  vf::util::Rng rng(5);
  std::vector<vf::spatial::Neighbor> buf;
  for (auto _ : state) {
    Vec3 q{rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
    tree.knn(q, 5, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdTreeKnn5)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_Gemm(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  vf::nn::Matrix a(n, n, 0.5), b(n, n, 0.25), out;
  for (auto _ : state) {
    vf::nn::gemm(a, b, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(512);

// Rectangular (m, n, k) shapes as they occur in training/inference:
// 4096x512x256 is the headline blocked-vs-naive comparison shape, 256x512x23
// is the trainer's first-layer minibatch, 8192x512x23 the streaming
// inference tile. items_processed counts FLOPs so the reporter shows
// GFLOP/s directly.
void BM_GemmShaped(benchmark::State& state) {
  auto m = static_cast<std::size_t>(state.range(0));
  auto n = static_cast<std::size_t>(state.range(1));
  auto k = static_cast<std::size_t>(state.range(2));
  vf::nn::Matrix a(m, k, 0.5), b(k, n, 0.25), out;
  for (auto _ : state) {
    vf::nn::gemm(a, b, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2 * m * n * k));
}
BENCHMARK(BM_GemmShaped)
    ->Args({4096, 512, 256})
    ->Args({256, 512, 23})
    ->Args({8192, 512, 23});

// The retained pre-kernel-layer triple loop, same shapes: the ratio of the
// two items_per_second columns is the blocked kernel's speedup.
void BM_GemmNaiveShaped(benchmark::State& state) {
  auto m = static_cast<std::size_t>(state.range(0));
  auto n = static_cast<std::size_t>(state.range(1));
  auto k = static_cast<std::size_t>(state.range(2));
  vf::nn::Matrix a(m, k, 0.5), b(k, n, 0.25), out;
  for (auto _ : state) {
    vf::nn::gemm_naive(a, b, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2 * m * n * k));
}
BENCHMARK(BM_GemmNaiveShaped)
    ->Args({4096, 512, 256})
    ->Args({256, 512, 23})
    ->Args({8192, 512, 23});

// Fused GEMM + bias + ReLU against one inference tile's first layer.
void BM_FusedDense(benchmark::State& state) {
  auto rows = static_cast<std::size_t>(state.range(0));
  vf::nn::Matrix x(rows, 23, 0.5), w(23, 512, 0.1), bias(1, 512, 0.01), out;
  for (auto _ : state) {
    vf::nn::fused_dense_forward(x, w, bias, /*relu=*/true, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2 * rows * 512 * 23));
}
BENCHMARK(BM_FusedDense)->Arg(8192);

// The paper network's forward over weights packed once (the grid engine's
// and a served model's inference form), at fp64 and at fp32 (the float
// instance of the same micro-kernel, which fp16 and int8 also run), at
// serve micro-batch sizes up to one grid tile: 1, 2 and 4 rows fill one
// 4-row register tile in part or whole, 9 rows two tiles and part of a
// third.
void BM_PackedForward(benchmark::State& state, vf::nn::QuantPolicy policy) {
  auto rows = static_cast<std::size_t>(state.range(0));
  const auto net = vf::nn::Network::mlp(23, {512, 256, 128, 64, 16}, 4, 7);
  const vf::nn::QuantizedNetwork packed(net, policy);
  vf::nn::Matrix x(rows, 23);
  vf::util::Rng rng(11);
  for (double& v : x.data()) v = rng.uniform(-2.0, 2.0);
  vf::nn::Matrix out;
  vf::nn::QuantScratch scratch;
  for (auto _ : state) {
    packed.infer(x, out, scratch);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rows));
}
void packed_forward_rows(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(9)->Arg(16)->Arg(64)->Arg(2048);
}
BENCHMARK_CAPTURE(BM_PackedForward, none, vf::nn::QuantPolicy::None)
    ->Apply(packed_forward_rows);
BENCHMARK_CAPTURE(BM_PackedForward, fp32, vf::nn::QuantPolicy::Fp32)
    ->Apply(packed_forward_rows);

void BM_DelaunayBuild(benchmark::State& state) {
  auto pts = random_points(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    vf::geometry::Delaunay3 dt(pts);
    benchmark::DoNotOptimize(dt.tetrahedron_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DelaunayBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_DelaunayLocate(benchmark::State& state) {
  auto pts = random_points(static_cast<std::size_t>(state.range(0)));
  vf::geometry::Delaunay3 dt(pts);
  vf::util::Rng rng(3);
  std::int64_t hint = -1;
  for (auto _ : state) {
    Vec3 q{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
           rng.uniform(0.1, 0.9)};
    auto loc = dt.locate(q, hint);
    hint = loc.tet;
    benchmark::DoNotOptimize(loc.weights);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DelaunayLocate)->Arg(10000)->Arg(100000);

void BM_ImportanceSampler(benchmark::State& state) {
  auto ds = vf::data::make_dataset("hurricane");
  auto truth = ds->generate({64, 64, 16}, 24.0);
  vf::sampling::ImportanceSampler sampler;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto cloud = sampler.sample(truth, 0.01, seed++);
    benchmark::DoNotOptimize(cloud.size());
  }
  state.SetItemsProcessed(state.iterations() * truth.size());
}
BENCHMARK(BM_ImportanceSampler);

void BM_FeatureExtraction(benchmark::State& state) {
  auto ds = vf::data::make_dataset("hurricane");
  auto truth = ds->generate({48, 48, 12}, 24.0);
  vf::sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.02, 1);
  auto voids = cloud.void_indices();
  voids.resize(static_cast<std::size_t>(state.range(0)));
  vf::core::FeatureRequest freq;
  freq.cloud = &cloud;
  freq.grid = &truth.grid();
  freq.indices = &voids;
  for (auto _ : state) {
    auto X = vf::core::extract_features(freq);
    benchmark::DoNotOptimize(X.data().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FeatureExtraction)->Arg(1000)->Arg(10000);

// Batched k-NN on the in-situ step's cloud: 5 % of a 32x32x16 ionization
// timestep. Argument 1 = 0 sweeps every void point in grid order (the
// step's training-set and evaluation sweeps); 4 cycles through 4-point
// batches at uniform random positions (a served read on the live session,
// or a facade point query). items_per_second is queries per second.
void knn_sweep(benchmark::State& state, vf::spatial::IndexKind kind) {
  const int k = static_cast<int>(state.range(0));
  auto ds = vf::data::make_dataset("ionization");
  auto truth = ds->generate({32, 32, 16}, 3.0);
  vf::sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.05, 1);
  const auto index = vf::spatial::build_index(cloud.points(), kind);
  std::vector<Vec3> queries;
  std::size_t batch = static_cast<std::size_t>(state.range(1));
  if (batch == 0) {
    for (const std::int64_t v : cloud.void_indices()) {
      queries.push_back(truth.grid().position(v));
    }
    batch = queries.size();
  } else {
    const Vec3 lo = truth.grid().position(0);
    const Vec3 hi = truth.grid().position(truth.grid().point_count() - 1);
    vf::util::Rng rng(19);
    for (int i = 0; i < 1024; ++i) {
      queries.push_back({rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                         rng.uniform(lo.z, hi.z)});
    }
  }
  const auto uk = static_cast<std::size_t>(k);
  std::vector<std::uint32_t> indices(batch * uk);
  std::vector<double> dist2(batch * uk);
  std::size_t at = 0;
  for (auto _ : state) {
    index->knn_batch(queries.data() + at, batch, k, indices.data(),
                     dist2.data());
    benchmark::DoNotOptimize(indices.data());
    benchmark::DoNotOptimize(dist2.data());
    benchmark::ClobberMemory();
    at = (at + batch) % queries.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * batch));
}
void BM_GridHashSweep(benchmark::State& state) {
  knn_sweep(state, vf::spatial::IndexKind::GridHash);
}
BENCHMARK(BM_GridHashSweep)->ArgNames({"k", "batch"})
    ->Args({5, 0})->Args({8, 0})->Args({5, 4});
void BM_KdTreeSweep(benchmark::State& state) {
  knn_sweep(state, vf::spatial::IndexKind::KdTree);
}
BENCHMARK(BM_KdTreeSweep)->ArgNames({"k", "batch"})->Args({5, 0})->Args({5, 4});

// CRC-32 over random bytes: 64 is the carry-less fold's smallest input,
// 96 a 4-point VFW1 request payload, 4096 a short section, and 1,487,946 a
// paper-width model file. bytes_per_second is checksummed bytes.
void BM_Crc32(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  vf::util::Rng rng(23);
  std::vector<unsigned char> buf(len);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vf::util::crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * len));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(96)->Arg(4096)->Arg(1487946);

void BM_NearestReconstruct(benchmark::State& state) {
  auto ds = vf::data::make_dataset("hurricane");
  auto truth = ds->generate({48, 48, 12}, 24.0);
  vf::sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.01, 1);
  vf::interp::NearestNeighborReconstructor rec;
  for (auto _ : state) {
    auto out = rec.reconstruct(cloud, truth.grid());
    benchmark::DoNotOptimize(out.values().data());
  }
  state.SetItemsProcessed(state.iterations() * truth.size());
}
BENCHMARK(BM_NearestReconstruct);

void BM_LinearReconstruct(benchmark::State& state) {
  auto ds = vf::data::make_dataset("hurricane");
  auto truth = ds->generate({48, 48, 12}, 24.0);
  vf::sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.01, 1);
  vf::interp::LinearDelaunayReconstructor rec;
  for (auto _ : state) {
    auto out = rec.reconstruct(cloud, truth.grid());
    benchmark::DoNotOptimize(out.values().data());
  }
  state.SetItemsProcessed(state.iterations() * truth.size());
}
BENCHMARK(BM_LinearReconstruct);

// Untrained paper-architecture model with identity normalisation: the
// reconstruction benches below time the inference path, which does not care
// whether the weights are trained.
vf::core::FcnnModel paper_arch_model() {
  vf::core::FcnnModel model;
  model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(vf::core::kFeatureDim),
      vf::core::FcnnConfig{}.hidden,
      static_cast<std::size_t>(vf::core::kTargetDimGrad), 42);
  model.in_norm.mean.assign(vf::core::kFeatureDim, 0.0);
  model.in_norm.stddev.assign(vf::core::kFeatureDim, 1.0);
  model.out_norm.mean.assign(vf::core::kTargetDimGrad, 0.0);
  model.out_norm.stddev.assign(vf::core::kTargetDimGrad, 1.0);
  return model;
}

// Whole-grid FCNN reconstruction by the tiled engine, swept over tile
// sizes. items_per_second is reconstructed grid points per second.
void BM_BatchReconstruct(benchmark::State& state) {
  auto ds = vf::data::make_dataset("hurricane");
  auto truth = ds->generate({48, 48, 12}, 24.0);
  vf::sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, 0.02, 1);
  // vf-lint: allow(api-facade) benchmarks the engine directly
  vf::core::FcnnReconstructor rec(
      paper_arch_model(),
      vf::core::ReconstructOptions{
          .tile_size = static_cast<std::size_t>(state.range(0))});
  for (auto _ : state) {
    auto out = rec.reconstruct(cloud, truth.grid());
    benchmark::DoNotOptimize(out.values().data());
  }
  state.SetItemsProcessed(state.iterations() * truth.size());
}
BENCHMARK(BM_BatchReconstruct)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192);

// A paper-width model file, written once, loaded into its fp64 packed
// form: a serve registry miss without the registry's locking (read, two
// CRC passes, parse, pack).
void BM_ModelLoad(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() /
                    "vf_micro_kernels_model_load.vfmd";
  paper_arch_model().save(path.string());
  for (auto _ : state) {
    const auto model =
        vf::core::PackedModel::load(path.string(), vf::nn::QuantPolicy::None);
    benchmark::DoNotOptimize(model.memory_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_ModelLoad);

}  // namespace
