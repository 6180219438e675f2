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

namespace {

/// Stack rows of `parts` vertically into one matrix.
Matrix vstack(const std::vector<Matrix>& parts) {
  std::size_t rows = 0;
  std::size_t cols = parts.empty() ? 0 : parts.front().cols();
  for (const auto& p : parts) rows += p.rows();
  Matrix out(rows, cols);
  std::size_t at = 0;
  for (const auto& p : parts) {
    for (std::size_t r = 0; r < p.rows(); ++r) {
      std::copy(p.row(r), p.row(r) + cols, out.row(at++));
    }
  }
  return out;
}

/// Feature matrix for grid points named by `indices` against a prebuilt
/// index (FeatureRequest assembly in one place for the four call sites).
Matrix grid_features(const vf::spatial::NeighborIndex& index,
                     const std::vector<double>& values,
                     const UniformGrid3& grid,
                     const std::vector<std::int64_t>& indices) {
  FeatureRequest req;
  req.tree = &index;
  req.values = &values;
  req.grid = &grid;
  req.indices = &indices;
  return extract_features(req);
}

/// Keep a random subset of rows (same permutation applied to X and Y).
void subset_rows(Matrix& X, Matrix& Y, std::size_t keep, std::uint64_t seed) {
  if (keep >= X.rows()) return;
  std::vector<std::size_t> order(X.rows());
  std::iota(order.begin(), order.end(), 0u);
  vf::util::Rng rng(seed, 0x726f7773);
  rng.shuffle(order);
  Matrix Xs(keep, X.cols()), Ys(keep, Y.cols());
  for (std::size_t r = 0; r < keep; ++r) {
    std::copy(X.row(order[r]), X.row(order[r]) + X.cols(), Xs.row(r));
    std::copy(Y.row(order[r]), Y.row(order[r]) + Y.cols(), Ys.row(r));
  }
  X = std::move(Xs);
  Y = std::move(Ys);
}

}  // namespace

TrainingSet build_training_set(const ScalarField& truth,
                               const Sampler& sampler,
                               const FcnnConfig& config) {
  if (config.train_fractions.empty()) {
    throw std::invalid_argument("build_training_set: no train fractions");
  }
  VF_OBS_SPAN("build_training_set");
  std::vector<Matrix> xs, ys;
  std::uint64_t seed = config.seed;
  for (double frac : config.train_fractions) {
    SampleCloud cloud = sampler.sample(truth, frac, seed++);
    auto voids = cloud.void_indices();
    // One explicit index per sampled cloud, shared by every feature query
    // of this fraction rather than rebuilt inside extract_features. The
    // void sweep is dense, so Auto resolves to the grid-hash.
    auto index = vf::spatial::build_index(
        cloud.points(), vf::spatial::IndexKind::Auto, voids.size());
    xs.push_back(grid_features(*index, cloud.values(), truth.grid(), voids));
    ys.push_back(extract_targets(truth, voids, config.with_gradients));
  }
  TrainingSet set{vstack(xs), vstack(ys)};

  std::size_t keep = set.X.rows();
  if (config.train_subset < 1.0) {
    keep = static_cast<std::size_t>(config.train_subset *
                                    static_cast<double>(keep));
  }
  if (config.max_train_rows > 0) {
    keep = std::min(keep, config.max_train_rows);
  }
  keep = std::max<std::size_t>(keep, 1);
  subset_rows(set.X, set.Y, keep, config.seed ^ 0xabcdu);
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
