#pragma once
// Outside-in layer replays for the traced runs. Some layers do their work
// on the program's own threads (OpenMP tiles, serve workers, the
// fine-tune worker), where the benchmark cannot put a span; these helpers
// repeat the same public calls from the benchmark's thread, one layer per
// span, so each layer's time can be read off directly:
//
//   grid reconstruction  index build -> feature assembly -> normalise
//                        -> dense layer 1..L on 2048-row tiles
//   point prediction     k-d tree probe, predict_points, dense layer 1..L
//                        at a serve batch size
//   model files          FcnnModel::save / FcnnModel::load
//   scene inputs         Dataset::generate / Sampler::sample

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "vf/core/model.hpp"
#include "vf/data/dataset.hpp"

namespace perfbench {

/// Dense layers the per-layer metrics name (nn.dense1 .. nn.dense6).
inline constexpr int kReportedDenseLayers = 6;

/// One grid reconstruction split into layer calls (milliseconds).
struct GridSplit {
  double index_build_ms = 0.0;
  double features_ms = 0.0;
  double normalize_ms = 0.0;
  std::vector<double> dense_ms;      ///< per dense layer
  std::vector<double> dense_gflops;  ///< computed from shapes and time
  std::size_t rows = 0;              ///< void points predicted
  /// Sum of the stages above: the replay's account of one reconstruction.
  [[nodiscard]] double layer_ms() const;
};

/// Replay the streaming reconstruction of `frame` with `model` at the
/// caller's OpenMP thread count (the tile loop runs on this thread).
[[nodiscard]] GridSplit replay_grid(const vf::core::FcnnModel& model,
                                    const Frame& frame, Tracer& tracer);

/// Per-call costs of one point batch of `batch` rows (microseconds).
struct PointSplit {
  double knn_us = 0.0;            ///< one k-d tree 5-NN probe
  double predict_points_us = 0.0; ///< api::predict_points over the batch
  std::vector<double> dense_us;   ///< fused_dense_forward per layer
};
[[nodiscard]] PointSplit replay_points(const vf::core::FcnnModel& model,
                                       const vf::sampling::SampleCloud& cloud,
                                       std::size_t batch, std::uint64_t seed,
                                       Tracer& tracer);

/// One serve session as a replay meets it: its model and its cloud.
struct ReplaySession {
  const vf::core::FcnnModel* model = nullptr;
  const vf::sampling::SampleCloud* cloud = nullptr;
};

/// Mean time of one api::predict_points call over `batch` points
/// (microseconds), as the serve workers meet batches: every call on fresh
/// seeded points, on the session `keys` names next (its model, a k-d tree
/// of its cloud), so weights and trees are as warm as in the live tier.
[[nodiscard]] double replay_predict_us(
    const std::vector<ReplaySession>& sessions,
    const std::vector<std::size_t>& keys, std::size_t batch,
    std::uint64_t seed, Tracer& tracer);

/// Median of `reps` model saves / loads through `dir` (milliseconds).
struct ModelIo {
  double save_ms = 0.0;
  double load_ms = 0.0;
};
[[nodiscard]] ModelIo replay_model_io(const vf::core::FcnnModel& model,
                                      const std::string& dir, int reps,
                                      Tracer& tracer);

/// Spatial layer over `frame`: Auto index build for a grid sweep and the
/// batched 5-NN query over every void point (milliseconds).
struct SpatialSplit {
  double index_build_ms = 0.0;
  double knn_batch_ms = 0.0;
};
[[nodiscard]] SpatialSplit replay_spatial(const Frame& frame, Tracer& tracer);

/// Scene inputs: rasterise and sample one timestep (milliseconds).
struct InputSplit {
  double generate_ms = 0.0;
  double sample_ms = 0.0;
};
[[nodiscard]] InputSplit replay_inputs(const vf::data::Dataset& ds,
                                       vf::field::Dims dims, double t,
                                       double fraction, std::uint64_t seed,
                                       Tracer& tracer);

/// Record the replays above under their per-layer metric names.
void report_grid_split(const GridSplit& g, Report& r);
void report_point_split(const PointSplit& p, Report& r);

}  // namespace perfbench
