#include "vf/core/fcnn.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "vf/obs/obs.hpp"
#include "vf/util/env.hpp"
#include "vf/util/rng.hpp"
#include "vf/util/timer.hpp"

namespace vf::core {

using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::nn::Matrix;
using vf::sampling::SampleCloud;
using vf::sampling::Sampler;

FcnnConfig FcnnConfig::paper() {
  FcnnConfig cfg;
  cfg.epochs = 500;
  cfg.max_train_rows = 0;
  return cfg;
}

FcnnConfig FcnnConfig::bench() {
  FcnnConfig cfg;
  if (vf::util::full_scale()) {
    return paper();
  }
  cfg.batch_size = 128;  // maximise Adam steps within the reduced budget
  if (vf::util::quick_mode()) {
    cfg.epochs = 8;
    cfg.max_train_rows = 3000;
  } else {
    cfg.epochs = 15;
    cfg.max_train_rows = 8000;
  }
  return cfg;
}

std::vector<std::size_t> FcnnConfig::pyramid(int layers) {
  std::vector<std::size_t> hidden;
  std::size_t width = 512;
  for (int i = 0; i < layers; ++i) {
    hidden.push_back(width);
    if (width > 16) width /= 2;
  }
  return hidden;
}

TrainingSet build_training_set(const ScalarField& truth,
                               const Sampler& sampler,
                               const FcnnConfig& config) {
  if (config.train_fractions.empty()) {
    throw std::invalid_argument("build_training_set: no train fractions");
  }
  VF_OBS_SPAN("build_training_set");
  // The set is every fraction's voids stacked, then a seeded shuffle of
  // that stack cut to `keep` rows. Sample first, draw the shuffle over the
  // stacked count, and build features and targets for the kept rows only.
  std::vector<SampleCloud> clouds;
  std::vector<std::vector<std::int64_t>> voids;
  std::size_t total = 0;
  std::uint64_t seed = config.seed;
  for (double frac : config.train_fractions) {
    clouds.push_back(sampler.sample(truth, frac, seed++));
    voids.push_back(clouds.back().void_indices());
    total += voids.back().size();
  }

  std::size_t keep = total;
  if (config.train_subset < 1.0) {
    keep = static_cast<std::size_t>(config.train_subset *
                                    static_cast<double>(keep));
  }
  if (config.max_train_rows > 0) {
    keep = std::min(keep, config.max_train_rows);
  }
  keep = std::min(std::max<std::size_t>(keep, 1), total);
  // Row r of the set is stacked row order[r]; every row kept stays in
  // stacked order.
  std::vector<std::size_t> order(total);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (keep < total) {
    vf::util::Rng rng(config.seed ^ 0xabcdu, 0x726f7773);
    rng.shuffle(order);
  }
  std::vector<std::size_t> row_of(total, keep);  // keep: not kept
  for (std::size_t r = 0; r < keep; ++r) row_of[order[r]] = r;

  const int width =
      config.with_gradients ? kTargetDimGrad : kTargetDimScalar;
  TrainingSet set{Matrix(keep, static_cast<std::size_t>(kFeatureDim)),
                  Matrix(keep, static_cast<std::size_t>(width))};
  // One fraction's kept voids in sweep order, and their rows in the set.
  std::vector<std::int64_t> kept;
  std::vector<std::size_t> rows;
  std::size_t stacked = 0;
  for (std::size_t f = 0; f < clouds.size(); ++f) {
    kept.clear();
    rows.clear();
    for (const std::int64_t v : voids[f]) {
      if (row_of[stacked] < keep) {
        kept.push_back(v);
        rows.push_back(row_of[stacked]);
      }
      ++stacked;
    }
    // The index kind is the one Auto picks for the fraction's whole void
    // sweep, so each row is the one the full set would hold.
    const auto index = vf::spatial::build_index(
        clouds[f].points(), vf::spatial::IndexKind::Auto, voids[f].size());
    FeatureRequest req;
    req.tree = index.get();
    req.values = &clouds[f].values();
    req.grid = &truth.grid();
    req.indices = &kept;
    const Matrix X = extract_features(req);
    const Matrix Y = extract_targets(truth, kept, config.with_gradients);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::copy(X.row(i), X.row(i) + X.cols(), set.X.row(rows[i]));
      std::copy(Y.row(i), Y.row(i) + Y.cols(), set.Y.row(rows[i]));
    }
  }
  return set;
}

PretrainResult pretrain(const ScalarField& truth, const Sampler& sampler,
                        const FcnnConfig& config) {
  VF_OBS_SPAN("pretrain");
  vf::util::Timer data_timer;  // vf-lint: allow(raw-timer) feeds PretrainResult
  TrainingSet set = build_training_set(truth, sampler, config);

  PretrainResult result;
  result.train_rows = set.X.rows();
  result.model.with_gradients = config.with_gradients;
  result.model.dataset = truth.name();
  result.model.in_norm = Normalizer::fit(set.X);
  result.model.out_norm = Normalizer::fit(set.Y);
  if (config.with_gradients && config.gradient_loss_weight != 1.0 &&
      config.gradient_loss_weight > 0.0) {
    // Inflating a column's stddev shrinks its normalised targets, scaling
    // that column's squared-error contribution by gradient_loss_weight.
    double inflate = 1.0 / std::sqrt(config.gradient_loss_weight);
    for (std::size_t c = 1; c < result.model.out_norm.stddev.size(); ++c) {
      result.model.out_norm.stddev[c] *= inflate;
    }
  }
  result.model.in_norm.apply(set.X);
  result.model.out_norm.apply(set.Y);
  result.data_seconds = data_timer.seconds();

  result.model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(kFeatureDim), config.hidden,
      config.with_gradients ? kTargetDimGrad : kTargetDimScalar, config.seed);

  vf::nn::TrainOptions topt;
  topt.epochs = config.epochs;
  topt.batch_size = config.batch_size;
  topt.learning_rate = config.learning_rate;
  topt.schedule = config.lr_schedule;
  topt.shuffle_seed = config.seed ^ 0x5a5a;
  topt.checkpoint_dir = config.checkpoint_dir;
  topt.checkpoint_every = config.checkpoint_every;
  topt.checkpoint_keep = config.checkpoint_keep;
  topt.resume = config.resume;
  vf::nn::Trainer trainer(topt);
  result.history = trainer.fit(result.model.net, set.X, set.Y);
  return result;
}

vf::nn::TrainHistory fine_tune(FcnnModel& model, const ScalarField& truth,
                               const Sampler& sampler,
                               const FcnnConfig& config, FineTuneMode mode,
                               int epochs, bool refit_normalization) {
  TrainingSet set = build_training_set(truth, sampler, config);
  if (refit_normalization) {
    // Cross-simulation transfer: rebind the model's I/O space to the new
    // data's statistics before adapting the weights.
    model.in_norm = Normalizer::fit(set.X);
    model.out_norm = Normalizer::fit(set.Y);
  }
  // Within one simulation the pretraining normalisation is kept so the
  // model's I/O space is stable across timesteps (weights adapt instead).
  model.in_norm.apply(set.X);
  model.out_norm.apply(set.Y);

  switch (mode) {
    case FineTuneMode::FullNetwork:
      model.net.set_all_trainable(true);
      break;
    case FineTuneMode::LastTwoLayers:
      model.net.set_trainable_last_dense(2);
      break;
  }

  vf::nn::TrainOptions topt;
  topt.epochs = epochs;
  topt.batch_size = config.batch_size;
  topt.learning_rate = config.learning_rate;
  topt.schedule = config.lr_schedule;
  topt.shuffle_seed = config.seed ^ 0x0f1e2d;
  // Forward the checkpoint wiring just like pretrain: the in-situ pipeline
  // fine-tunes every timestep and needs each step crash-resumable.
  topt.checkpoint_dir = config.checkpoint_dir;
  topt.checkpoint_every = config.checkpoint_every;
  topt.checkpoint_keep = config.checkpoint_keep;
  topt.resume = config.resume;
  vf::nn::Trainer trainer(topt);
  auto history = trainer.fit(model.net, set.X, set.Y);
  model.net.set_all_trainable(true);  // leave the model unrestricted
  return history;
}

namespace {

/// Per-thread working set for one tile: the tile's query positions and
/// answers plus the kernel scratch. Buffers grow to tile size on the first
/// tile a thread takes and are reused for every tile after.
struct TileScratch {
  std::vector<Vec3> queries;
  std::vector<double> values;
  PointScratch kernel;

  [[nodiscard]] std::size_t element_count() const {
    // Vec3 counts as 3 doubles.
    return 3 * queries.capacity() + values.capacity() +
           kernel.element_count();
  }
};

void require_stencil(const BoundCloud& bound) {
  if (bound.size() < static_cast<std::size_t>(kNeighbors)) {
    throw std::invalid_argument("FcnnReconstructor: cloud smaller than k");
  }
}

/// Pin the sampled grid points of `field` to their stored values when
/// `cloud` was sampled from the field's grid; returns whether it was.
bool pin_samples(const SampleCloud& cloud, ScalarField& field) {
  if (!cloud.has_grid() || !(cloud.grid() == field.grid())) return false;
  const auto& kept = cloud.kept_indices();
  const auto& vals = cloud.values();
  for (std::size_t i = 0; i < kept.size(); ++i) field[kept[i]] = vals[i];
  return true;
}

/// Fill the outcome fields of `report` for `total` predicted points of
/// which `degraded` were repaired.
void account(ReconstructReport& report, std::size_t total,
             std::size_t degraded) {
  report.predicted_points = total - degraded;
  report.degraded_points = degraded;
  if (degraded > 0) {
    report.fallback = FallbackReason::NonFiniteOutput;
    report.detail = "network produced non-finite outputs";
  }
  VF_OBS_COUNT("core.reconstruct.predicted_points", report.predicted_points);
  VF_OBS_COUNT("core.reconstruct.repaired_points", report.degraded_points);
}

/// `model`, checked for what the engine needs before its weights are
/// packed.
const FcnnModel& fitted(const FcnnModel& model) {
  if (model.out_norm.mean.empty() || model.in_norm.mean.empty()) {
    throw std::invalid_argument(
        "FcnnReconstructor: model is missing normalisation constants");
  }
  return model;
}

}  // namespace

FcnnReconstructor::FcnnReconstructor(const FcnnModel& model,
                                     const ReconstructOptions& opts)
    : opts_(opts), model_(fitted(model), opts.quant) {
  opts_.tile_size = std::max<std::size_t>(1, opts_.tile_size);
}

template <typename Emit>
std::size_t FcnnReconstructor::run_tiles(const BoundCloud& bound,
                                         const UniformGrid3& grid,
                                         const std::int64_t* idx,
                                         std::int64_t n, Emit emit) {
  const auto tile = static_cast<std::int64_t>(opts_.tile_size);
  const std::int64_t tiles = (n + tile - 1) / tile;
  std::size_t degraded = 0;
  std::size_t peak = 0;
  // vf-par: per-thread-scratch — TileScratch is thread-local; tiles emit
  // disjoint grid indices; degraded is a reduction and the peak merge is
  // inside omp critical.
#pragma omp parallel reduction(+ : degraded)
  {
    TileScratch ts;
    std::size_t local_peak = 0;
#pragma omp for schedule(dynamic)
    for (std::int64_t t = 0; t < tiles; ++t) {
      // Span buffers are thread-local, so instrumenting inside the omp
      // region is race-free; worker-thread spans aggregate by path.
      VF_OBS_HIST_TIMER("core.reconstruct.tile_seconds");
      const std::int64_t b = t * tile;
      const auto count = static_cast<std::size_t>(std::min(n, b + tile) - b);
      ts.queries.resize(count);
      ts.values.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const auto g = b + static_cast<std::int64_t>(i);
        ts.queries[i] = grid.position(idx ? idx[g] : g);
      }
      // Inside this parallel region the kernel's own OpenMP regions
      // serialise (nested parallelism is off), so each tile is one
      // thread's sequential pipeline.
      degraded += predict_points(model_, bound.index(), bound.values(),
                                 ts.queries.data(), count, ts.values.data(),
                                 ts.kernel);
      for (std::size_t i = 0; i < count; ++i) {
        const auto g = b + static_cast<std::int64_t>(i);
        emit(idx ? idx[g] : g, ts.values[i], ts.kernel.Y, i);
      }
      local_peak = std::max(local_peak, ts.element_count());
    }
#pragma omp critical
    peak = std::max(peak, local_peak);
  }
  peak_scratch_elements_ = std::max(peak_scratch_elements_, peak);
  return degraded;
}

ScalarField FcnnReconstructor::reconstruct(const SampleCloud& cloud,
                                           const UniformGrid3& grid) {
  ReconstructReport report;
  return reconstruct(cloud, grid, report);
}

ScalarField FcnnReconstructor::reconstruct(const SampleCloud& cloud,
                                           const UniformGrid3& grid,
                                           ReconstructReport& report) {
  // The engine sweeps (nearly) every grid point, so the grid size is the
  // query count the index selection sees.
  bound_.bind(cloud, opts_.index, static_cast<std::size_t>(grid.point_count()));
  return reconstruct(bound_, grid, report);
}

ScalarField FcnnReconstructor::reconstruct(const BoundCloud& bound,
                                           const UniformGrid3& grid,
                                           ReconstructReport& report) {
  VF_OBS_SPAN("fcnn_reconstruct");
  VF_OBS_COUNT("core.reconstruct.calls", 1);
  require_stencil(bound);
  report = bound.report();

  ScalarField out(grid, "fcnn");
  // Prediction targets: the voids when the grids match (sampled points
  // keep their stored values), every grid point otherwise.
  const bool same_grid = pin_samples(bound.cloud(), out);
  std::vector<std::int64_t> voids;
  std::int64_t n = grid.point_count();
  if (same_grid) {
    voids = bound.cloud().void_indices();
    n = static_cast<std::int64_t>(voids.size());
  }
  const std::size_t degraded =
      run_tiles(bound, grid, same_grid ? voids.data() : nullptr, n,
                [&](std::int64_t target, double value, const Matrix&,
                    std::size_t) { out[target] = value; });
  account(report, static_cast<std::size_t>(n), degraded);
  return out;
}

std::vector<double> FcnnReconstructor::reconstruct_points(
    const SampleCloud& cloud, const std::vector<Vec3>& points,
    ReconstructReport& report) {
  bound_.bind(cloud, opts_.index, points.size());
  require_stencil(bound_);
  report = bound_.report();
  std::vector<double> out(points.size());
  const std::size_t degraded = predict_points(
      model_, bound_.index(), bound_.values(), points.data(), points.size(),
      out.data(), point_scratch_);
  account(report, points.size(), degraded);
  return out;
}

FcnnReconstructor::FullReconstruction
FcnnReconstructor::reconstruct_with_gradients(const SampleCloud& cloud,
                                              const UniformGrid3& grid) {
  if (!model_.with_gradients) {
    throw std::logic_error(
        "reconstruct_with_gradients: model has scalar-only outputs");
  }
  bound_.bind(cloud, opts_.index, static_cast<std::size_t>(grid.point_count()));
  require_stencil(bound_);
  VF_OBS_SPAN("fcnn_reconstruct");
  FullReconstruction out{
      ScalarField(grid, "fcnn"),
      {ScalarField(grid, "fcnn_dx"), ScalarField(grid, "fcnn_dy"),
       ScalarField(grid, "fcnn_dz")}};

  // Predict all four outputs at every grid point; the gradient columns are
  // de-normalised from the same tiles' network outputs.
  const auto& mean = model_.out_norm.mean;
  const auto& sd = model_.out_norm.stddev;
  (void)run_tiles(bound_, grid, nullptr, grid.point_count(),
                  [&](std::int64_t target, double value, const Matrix& Y,
                      std::size_t row) {
                    out.scalar[target] = value;
                    out.gradient.dx[target] = Y(row, 1) * sd[1] + mean[1];
                    out.gradient.dy[target] = Y(row, 2) * sd[2] + mean[2];
                    out.gradient.dz[target] = Y(row, 3) * sd[3] + mean[3];
                  });
  pin_samples(bound_.cloud(), out.scalar);
  return out;
}

}  // namespace vf::core
