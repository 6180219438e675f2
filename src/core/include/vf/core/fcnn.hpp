#pragma once
// The paper's contribution: FCNN-based reconstruction of sampled data.
//
// Pipeline (paper §III, Fig 1/4/5):
//   pretrain()   — sample the available timestep at the configured fractions
//                  (1% + 5% in the paper), build the void-location training
//                  set, and train the MLP (512-256-128-64-16 hidden, ReLU,
//                  MSE, Adam 1e-3).
//   fine_tune()  — adapt a pretrained model to a new timestep / resolution:
//                  Case 1 retrains every layer for ~10 epochs; Case 2
//                  retrains only the last two dense layers (~300-500 epochs)
//                  so later timesteps can be stored as small weight deltas.
//   FcnnReconstructor — once trained, reconstruction is a tiled forward
//                  pass over all void locations: constant time in the
//                  sampling fraction (paper Fig 10).

#include <cstdint>
#include <string>
#include <vector>

#include "vf/core/inference.hpp"
#include "vf/core/model.hpp"
#include "vf/core/options.hpp"
#include "vf/core/report.hpp"
#include "vf/nn/trainer.hpp"
#include "vf/sampling/samplers.hpp"

namespace vf::core {

struct FcnnConfig {
  /// Hidden layer widths; the paper's final architecture.
  std::vector<std::size_t> hidden = {512, 256, 128, 64, 16};
  double learning_rate = 1e-3;
  int epochs = 500;
  /// Minibatch size. The paper does not specify one; 256 balances GEMM
  /// efficiency against Adam step count on CPU.
  std::size_t batch_size = 256;
  /// Learning-rate schedule (Constant = the paper's fixed Adam rate;
  /// Cosine helps at tight epoch budgets).
  vf::nn::LrSchedule lr_schedule = vf::nn::LrSchedule::Constant;
  /// Predict gradients alongside the scalar (Fig 8 ablation toggles this).
  bool with_gradients = true;
  /// Relative MSE weight of each gradient output against the scalar output
  /// (1.0 = the paper's plain equal-weight MSE). Implemented by scaling the
  /// gradient columns' target normalisation, so lower values let the
  /// gradient heads act as a mild regulariser instead of competing with
  /// the scalar head for capacity — useful at reduced training budgets.
  double gradient_loss_weight = 1.0;
  /// Sampling fractions whose void sets are concatenated into the training
  /// set (paper: the "1%+5% model", Fig 7).
  std::vector<double> train_fractions = {0.01, 0.05};
  /// Random fraction of the assembled training rows to keep (Fig 14 /
  /// Table II study training-set subsampling).
  double train_subset = 1.0;
  /// Hard cap on training rows after subsetting; 0 = unlimited. Used by the
  /// reduced-scale bench defaults.
  std::size_t max_train_rows = 0;
  std::uint64_t seed = 42;
  /// Crash-safe training checkpoints (empty dir disables): forwarded to
  /// TrainOptions, see vf/nn/checkpoint.hpp for format/retention/resume.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_keep = 3;
  bool resume = false;

  /// Full paper settings (500 epochs, uncapped rows).
  static FcnnConfig paper();
  /// Reduced settings for the scaled-down bench runs; honours VF_QUICK.
  static FcnnConfig bench();

  /// Hidden widths used for the Fig-6 depth sweep: a halving pyramid from
  /// 512 floored at 16, truncated/extended to `layers` entries.
  static std::vector<std::size_t> pyramid(int layers);
};

struct PretrainResult {
  FcnnModel model;
  vf::nn::TrainHistory history;
  /// Wall-clock seconds spent on sampling + feature extraction (reported
  /// separately from history.seconds, the pure training time).
  double data_seconds = 0.0;
  std::size_t train_rows = 0;
};

/// Train a model from scratch on one timestep of ground truth, using
/// `sampler` to generate the training samplings.
PretrainResult pretrain(const vf::field::ScalarField& truth,
                        const vf::sampling::Sampler& sampler,
                        const FcnnConfig& config);

enum class FineTuneMode {
  FullNetwork,    // Case 1: all layers trainable, ~10 epochs
  LastTwoLayers,  // Case 2: only the last two dense layers, ~300-500 epochs
};

/// Fine-tune `model` in place on a new timestep. `epochs` overrides
/// config.epochs (the paper uses ~10 for Case 1, 300-500 for Case 2).
/// Normalisation constants are kept from pretraining by default (the
/// paper's same-simulation workflow); set `refit_normalization` when
/// transferring across simulations whose value/coordinate ranges differ —
/// the stale z-score constants are otherwise the dominant failure mode.
vf::nn::TrainHistory fine_tune(FcnnModel& model,
                               const vf::field::ScalarField& truth,
                               const vf::sampling::Sampler& sampler,
                               const FcnnConfig& config, FineTuneMode mode,
                               int epochs, bool refit_normalization = false);

/// The FCNN grid engine: reconstructs a full grid from a sample cloud with
/// a trained model. When the cloud was sampled from the same grid, sampled
/// points keep their exact stored values and only void locations are
/// predicted; otherwise (e.g. upscaling onto a finer grid) every grid point
/// is predicted. Grid points stream through predict_points `tile_size` at a
/// time, one tile per OpenMP thread on per-thread scratch, so memory is
/// O(tile) rather than O(grid) — the paper's in-situ setting shares the
/// node with the running simulation. The bound cloud is cached across
/// calls (see BoundCloud), and the model's weights are packed once at
/// construction, at ReconstructOptions::quant (see PackedModel).
class FcnnReconstructor {
 public:
  /// Packs `model`'s weights; the engine keeps no other copy, so `model`
  /// may change or go away after.
  explicit FcnnReconstructor(const FcnnModel& model,
                             const ReconstructOptions& opts = {});

  [[nodiscard]] std::string name() const { return "fcnn"; }

  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid);

  /// Degradation-accounting overload. Unusable samples (non-finite values
  /// or coordinates, duplicated positions) are scrubbed on ingest, and any
  /// non-finite network output is replaced per point by a Shepard estimate
  /// from the scrubbed samples; `report` records every such decision. The
  /// two-argument overload delegates here and discards the report.
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid, ReconstructReport& report);

  /// As above over a cloud the caller has bound (several engines sharing
  /// one scrub and index, or a caller that inspects the scrubbed cloud
  /// first). Throws std::invalid_argument when fewer samples than the
  /// feature stencil survived scrubbing.
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const BoundCloud& bound, const vf::field::UniformGrid3& grid,
      ReconstructReport& report);

  /// Point mode: the scalar at arbitrary positions, with the same scrub,
  /// repair and accounting as the grid overloads.
  [[nodiscard]] std::vector<double> reconstruct_points(
      const vf::sampling::SampleCloud& cloud,
      const std::vector<vf::field::Vec3>& points, ReconstructReport& report);

  /// Scalar + predicted gradient components in one pass. Only valid for
  /// models trained with gradient outputs (throws otherwise). At sampled
  /// grid points the scalar is pinned to the stored value while gradients
  /// remain the network's prediction.
  struct FullReconstruction {
    vf::field::ScalarField scalar;
    vf::field::GradientField gradient;
  };
  [[nodiscard]] FullReconstruction reconstruct_with_gradients(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid);

  /// Index builds so far; a repeat call with the same cloud adds none.
  [[nodiscard]] std::size_t tree_builds() const { return bound_.builds(); }
  /// High-water mark of per-thread scratch (doubles) across all grid
  /// reconstructions so far: the O(tile) memory bound tests assert.
  [[nodiscard]] std::size_t peak_scratch_elements() const {
    return peak_scratch_elements_;
  }

 private:
  /// Predict the grid points `idx[0..n)` (every index 0..n when `idx` is
  /// null) in tiles; `emit(target, value, Y, row)` writes each answer,
  /// where row `row` of `Y` holds its normalised network outputs. Returns
  /// the number of repaired points.
  template <typename Emit>
  std::size_t run_tiles(const BoundCloud& bound,
                        const vf::field::UniformGrid3& grid,
                        const std::int64_t* idx, std::int64_t n, Emit emit);

  ReconstructOptions opts_;
  PackedModel model_;
  BoundCloud bound_;
  /// Point-mode scratch (grid tiles use per-thread scratch).
  PointScratch point_scratch_;
  std::size_t peak_scratch_elements_ = 0;
};

/// Internal helper, exposed for tests and benches: assemble the (X, Y)
/// training matrices for one timestep under `config`.
struct TrainingSet {
  vf::nn::Matrix X;
  vf::nn::Matrix Y;
};
TrainingSet build_training_set(const vf::field::ScalarField& truth,
                               const vf::sampling::Sampler& sampler,
                               const FcnnConfig& config);

}  // namespace vf::core
