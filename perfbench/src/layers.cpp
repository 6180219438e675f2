#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "vf/api/reconstruct.hpp"
#include "vf/core/features.hpp"
#include "vf/nn/dense.hpp"
#include "vf/nn/kernels.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/spatial/neighbor_index.hpp"
#include "vf/util/rng.hpp"

namespace perfbench {

namespace {

using vf::field::Vec3;

/// Rows per tile, as the streaming engine uses (core::ReconstructOptions).
constexpr std::size_t kTile = vf::core::ReconstructOptions{}.tile_size;

constexpr const char* kDenseSpan[kReportedDenseLayers] = {
    "nn.dense1", "nn.dense2", "nn.dense3",
    "nn.dense4", "nn.dense5", "nn.dense6"};

const char* dense_span(std::size_t k) {
  return k < static_cast<std::size_t>(kReportedDenseLayers) ? kDenseSpan[k]
                                                            : "nn.dense_more";
}

/// The network's dense layers in order, each with whether inference fuses
/// the following ReLU into it (Network::infer's rule).
struct DenseRef {
  const vf::nn::DenseLayer* layer = nullptr;
  bool relu = false;
};
std::vector<DenseRef> dense_layers(const vf::nn::Network& net) {
  std::vector<DenseRef> out;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).kind() != "dense") continue;
    const bool relu =
        i + 1 < net.layer_count() && net.layer(i + 1).kind() == "relu";
    out.push_back(
        {static_cast<const vf::nn::DenseLayer*>(&net.layer(i)), relu});
  }
  return out;
}

/// Run every dense layer once over `x`, adding each layer's time to
/// `ms` (indexed by layer).
void forward_layers(const std::vector<DenseRef>& dense, const vf::nn::Matrix& x,
                    vf::nn::Matrix& a, vf::nn::Matrix& b,
                    std::vector<double>& ms, Tracer& tracer) {
  const vf::nn::Matrix* in = &x;
  vf::nn::Matrix* out = &a;
  for (std::size_t k = 0; k < dense.size(); ++k) {
    const auto t0 = Clock::now();
    vf::nn::fused_dense_forward(*in, dense[k].layer->weights(),
                                dense[k].layer->bias(), dense[k].relu, *out);
    const auto t1 = Clock::now();
    tracer.record(dense_span(k), t0, t1);
    ms[k] += ms_between(t0, t1);
    in = out;
    out = out == &a ? &b : &a;
  }
}

std::vector<Vec3> random_points(const vf::field::UniformGrid3& grid,
                                std::size_t n, std::uint64_t seed) {
  const auto box = grid.bounds();
  vf::util::Rng rng(seed);
  std::vector<Vec3> pts(n);
  for (auto& p : pts) {
    p = {rng.uniform(box.min.x, box.max.x), rng.uniform(box.min.y, box.max.y),
         rng.uniform(box.min.z, box.max.z)};
  }
  return pts;
}

/// Repetitions of a point batch: enough for ~40 ms of work at a few
/// points.
std::size_t predict_reps(std::size_t batch) {
  return std::max<std::size_t>(200, 4000 / batch);
}

/// Mean time of one api::predict_points call over `pts` (microseconds).
double time_predict_points(const vf::core::FcnnModel& model,
                           const vf::spatial::NeighborIndex& tree,
                           const std::vector<double>& values,
                           const std::vector<Vec3>& pts, Tracer& tracer) {
  const std::size_t reps = predict_reps(pts.size());
  std::vector<double> out(pts.size());
  vf::api::PointScratch ps;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    (void)vf::api::predict_points(model, tree, values, pts.data(), pts.size(),
                                  out.data(), ps);
  }
  const auto t1 = Clock::now();
  tracer.record("api.predict_points", t0, t1);
  return ms_between(t0, t1) * 1e3 / static_cast<double>(reps);
}

}  // namespace

double GridSplit::layer_ms() const {
  double s = index_build_ms + features_ms + normalize_ms;
  for (const double d : dense_ms) s += d;
  return s;
}

GridSplit replay_grid(const vf::core::FcnnModel& model, const Frame& frame,
                      Tracer& tracer) {
  GridSplit g;
  std::size_t nonfinite = 0;
  std::size_t duplicates = 0;
  const auto bound = frame.cloud.scrubbed(nonfinite, duplicates);
  const auto& grid = frame.truth.grid();
  const auto voids = bound.void_indices();
  g.rows = voids.size();

  auto t0 = Clock::now();
  const auto index = vf::spatial::build_index(
      bound.points(), vf::spatial::IndexKind::Auto,
      static_cast<std::size_t>(grid.point_count()));
  auto t1 = Clock::now();
  tracer.record("spatial.build_index", t0, t1);
  g.index_build_ms = ms_between(t0, t1);

  const auto dense = dense_layers(model.net);
  g.dense_ms.assign(dense.size(), 0.0);
  std::vector<Vec3> queries;
  vf::nn::Matrix x;
  vf::nn::Matrix a;
  vf::nn::Matrix b;
  vf::core::FeatureScratch scratch;
  for (std::size_t begin = 0; begin < voids.size(); begin += kTile) {
    const std::size_t count = std::min(kTile, voids.size() - begin);
    queries.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      queries[i] = grid.position(voids[begin + i]);
    }
    t0 = Clock::now();
    vf::core::extract_features_into(*index, bound.values(), queries.data(),
                                    count, x, scratch);
    t1 = Clock::now();
    tracer.record("core.extract_features", t0, t1);
    g.features_ms += ms_between(t0, t1);

    t0 = Clock::now();
    model.in_norm.apply(x);
    t1 = Clock::now();
    tracer.record("core.normalize", t0, t1);
    g.normalize_ms += ms_between(t0, t1);

    forward_layers(dense, x, a, b, g.dense_ms, tracer);
  }
  for (std::size_t k = 0; k < dense.size(); ++k) {
    const double flops = 2.0 * static_cast<double>(g.rows) *
                         static_cast<double>(dense[k].layer->in_features()) *
                         static_cast<double>(dense[k].layer->out_features());
    g.dense_gflops.push_back(
        g.dense_ms[k] > 0.0 ? flops / (g.dense_ms[k] * 1e-3) * 1e-9 : 0.0);
  }
  return g;
}

double replay_predict_us(const std::vector<ReplaySession>& sessions,
                         const std::vector<std::size_t>& keys,
                         std::size_t batch, std::uint64_t seed,
                         Tracer& tracer) {
  batch = std::max<std::size_t>(1, batch);
  struct Bound {
    vf::sampling::SampleCloud cloud;
    std::unique_ptr<vf::spatial::NeighborIndex> tree;
  };
  std::vector<Bound> bound;
  for (const auto& s : sessions) {
    std::size_t nonfinite = 0;
    std::size_t duplicates = 0;
    Bound b{s.cloud->scrubbed(nonfinite, duplicates), nullptr};
    b.tree = vf::spatial::build_index(b.cloud.points(),
                                      vf::spatial::IndexKind::KdTree);
    bound.push_back(std::move(b));
  }
  const auto pts = random_points(sessions.front().cloud->grid(),
                                 batch * keys.size(), seed ^ 0x5eedULL);
  std::vector<double> out(batch);
  vf::api::PointScratch ps;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < keys.size(); ++r) {
    const std::size_t k = keys[r];
    (void)vf::api::predict_points(*sessions[k].model, *bound[k].tree,
                                  bound[k].cloud.values(), pts.data() + r * batch,
                                  batch, out.data(), ps);
  }
  const auto t1 = Clock::now();
  tracer.record("api.predict_points", t0, t1);
  return ms_between(t0, t1) * 1e3 / static_cast<double>(keys.size());
}

PointSplit replay_points(const vf::core::FcnnModel& model,
                         const vf::sampling::SampleCloud& cloud,
                         std::size_t batch, std::uint64_t seed,
                         Tracer& tracer) {
  PointSplit p;
  batch = std::max<std::size_t>(1, batch);
  std::size_t nonfinite = 0;
  std::size_t duplicates = 0;
  const auto bound = cloud.scrubbed(nonfinite, duplicates);
  const auto tree = vf::spatial::build_index(bound.points(),
                                             vf::spatial::IndexKind::KdTree);
  const auto& grid = cloud.grid();

  // One probe at a time, as a serve batch of one point makes it.
  constexpr std::size_t kProbes = 20000;
  const auto probes = random_points(grid, kProbes, seed);
  std::vector<vf::spatial::Neighbor> nbrs;
  auto t0 = Clock::now();
  for (const auto& q : probes) tree->knn(q, vf::core::kNeighbors, nbrs);
  auto t1 = Clock::now();
  tracer.record("spatial.knn", t0, t1);
  p.knn_us = ms_between(t0, t1) * 1e3 / static_cast<double>(kProbes);

  const std::size_t reps = predict_reps(batch);
  const auto pts = random_points(grid, batch, seed ^ 0x5eedULL);
  p.predict_points_us =
      time_predict_points(model, *tree, bound.values(), pts, tracer);

  vf::nn::Matrix x;
  vf::core::extract_features_into(*tree, bound.values(), pts.data(), batch, x);
  model.in_norm.apply(x);
  const auto dense = dense_layers(model.net);
  std::vector<double> ms(dense.size(), 0.0);
  vf::nn::Matrix a;
  vf::nn::Matrix b;
  for (std::size_t r = 0; r < reps; ++r) forward_layers(dense, x, a, b, ms, tracer);
  for (const double m : ms) {
    p.dense_us.push_back(m * 1e3 / static_cast<double>(reps));
  }
  return p;
}

ModelIo replay_model_io(const vf::core::FcnnModel& model,
                        const std::string& dir, int reps, Tracer& tracer) {
  std::vector<double> save;
  std::vector<double> load;
  const std::string path = dir + "/replay_model.vfmd";
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    model.save(path);
    auto t1 = Clock::now();
    tracer.record("core.model_save", t0, t1);
    save.push_back(ms_between(t0, t1));
    t0 = Clock::now();
    const auto loaded = vf::core::FcnnModel::load(path);
    t1 = Clock::now();
    tracer.record("core.model_load", t0, t1);
    load.push_back(ms_between(t0, t1));
  }
  return {median(save), median(load)};
}

SpatialSplit replay_spatial(const Frame& frame, Tracer& tracer) {
  SpatialSplit s;
  std::size_t nonfinite = 0;
  std::size_t duplicates = 0;
  const auto bound = frame.cloud.scrubbed(nonfinite, duplicates);
  const auto& grid = frame.truth.grid();
  const auto voids = bound.void_indices();
  std::vector<Vec3> queries(voids.size());
  for (std::size_t i = 0; i < voids.size(); ++i) {
    queries[i] = grid.position(voids[i]);
  }
  auto t0 = Clock::now();
  const auto index = vf::spatial::build_index(
      bound.points(), vf::spatial::IndexKind::Auto,
      static_cast<std::size_t>(grid.point_count()));
  auto t1 = Clock::now();
  tracer.record("spatial.build_index", t0, t1);
  s.index_build_ms = ms_between(t0, t1);

  constexpr int k = vf::core::kNeighbors;
  std::vector<std::uint32_t> idx(queries.size() * k);
  std::vector<double> d2(queries.size() * k);
  t0 = Clock::now();
  index->knn_batch(queries.data(), queries.size(), k, idx.data(), d2.data());
  t1 = Clock::now();
  tracer.record("spatial.knn_batch", t0, t1);
  s.knn_batch_ms = ms_between(t0, t1);
  return s;
}

InputSplit replay_inputs(const vf::data::Dataset& ds, vf::field::Dims dims,
                         double t, double fraction, std::uint64_t seed,
                         Tracer& tracer) {
  InputSplit in;
  auto t0 = Clock::now();
  const auto truth = ds.generate(dims, t);
  auto t1 = Clock::now();
  tracer.record("data.generate", t0, t1);
  in.generate_ms = ms_between(t0, t1);
  const vf::sampling::ImportanceSampler sampler;
  t0 = Clock::now();
  const auto cloud = sampler.sample(truth, fraction, seed);
  t1 = Clock::now();
  tracer.record("sampling.sample", t0, t1);
  in.sample_ms = ms_between(t0, t1);
  return in;
}

void report_grid_split(const GridSplit& g, Report& r) {
  r.set("core.features_ms", g.features_ms, "ms");
  r.set("core.normalize_ms", g.normalize_ms, "ms");
  for (std::size_t k = 0;
       k < g.dense_ms.size() && k < static_cast<std::size_t>(kReportedDenseLayers);
       ++k) {
    const std::string n = "nn.dense" + std::to_string(k + 1);
    r.set(n + "_ms", g.dense_ms[k], "ms");
    r.set(n + "_gflops", g.dense_gflops[k], "GFLOP/s");
  }
}

void report_point_split(const PointSplit& p, Report& r) {
  r.set("spatial.knn_us", p.knn_us, "us", 20000);
  r.set("api.predict_points_us", p.predict_points_us, "us");
  for (std::size_t k = 0;
       k < p.dense_us.size() && k < static_cast<std::size_t>(kReportedDenseLayers);
       ++k) {
    r.set("nn.dense" + std::to_string(k + 1) + "_us", p.dense_us[k], "us");
  }
}

}  // namespace perfbench
