#pragma once
// vf::api::Pipeline — the one front door to the in-situ streaming loop
// (sample → fine-tune → hot-swap → serve; DESIGN.md §14).
//
// Callers used to wire the loop by hand: pretrain + fine_tune per step,
// an api::Reconstructor per reconstruction, and (since the serve tier
// exists) a ShardRouter plus session re-registration. This facade owns
// all of it behind a builder-style config:
//
//   api::PipelineConfig cfg;
//   cfg.with_dataset("ionization")
//      .with_sample_fraction(0.05)
//      .with_epochs_per_step(10)
//      .with_drift_floor_snr(12.0)
//      .with_workers(1)
//      .with_workdir("/tmp/vf-pipeline");
//   api::Pipeline pipe(cfg);
//   pipe.start();                  // step 0: pretrain + first publish
//   while (pipe.step()) { ... }    // stream; fine-tunes run in background
//   pipe.drain();                  // wait for every queued fine-tune
//   auto resp = pipe.query({{0.5, 0.5, 0.5}});
//
// Queries are answered by the embedded serve tier the whole time — each
// step's publish is a hot swap under the registry's generation counter,
// so in-flight queries against the superseded model complete safely.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vf/pipeline/insitu.hpp"

namespace vf::api {

/// Builder-style configuration. Plain aggregate fields remain assignable;
/// the with_* methods just make call sites read as a sentence.
struct PipelineConfig {
  /// Registered dataset streamed by the simulation driver.
  std::string dataset = "ionization";
  vf::field::Dims dims{32, 32, 16};
  double t0 = 0.0;
  /// Simulation-time advance per step.
  double stride = 1.0;
  /// Steps the driver emits before step() reports exhaustion (0 = run
  /// until stopped).
  int max_steps = 8;
  /// Archival sampling fraction per step.
  double sample_fraction = 0.05;
  /// Step-0 pretrain epochs; later steps use epochs_per_step.
  int pretrain_epochs = 30;
  int epochs_per_step = 10;
  /// Drift floor in dB (<= 0 disables drift handling).
  double drift_floor_snr = 0.0;
  /// Background fine-tune workers.
  std::size_t workers = 1;
  /// Checkpoint/model working directory (required).
  std::string workdir;
  /// Training knobs forwarded to FcnnConfig (hidden widths and the rest
  /// keep their FcnnConfig defaults).
  std::size_t max_train_rows = 8000;
  std::vector<std::size_t> hidden = {64, 32};
  std::uint64_t seed = 1;
  /// Serve-tier shape.
  std::size_t shards = 1;
  std::size_t serve_workers = 2;
  std::string session_key = "live";
  /// Per-step completion hook (runs on a fine-tune worker thread).
  std::function<void(const vf::pipeline::StepReport&)> on_step;

  PipelineConfig& with_dataset(std::string name) {
    dataset = std::move(name);
    return *this;
  }
  PipelineConfig& with_dims(vf::field::Dims d) {
    dims = d;
    return *this;
  }
  PipelineConfig& with_sample_fraction(double f) {
    sample_fraction = f;
    return *this;
  }
  PipelineConfig& with_epochs_per_step(int e) {
    epochs_per_step = e;
    return *this;
  }
  PipelineConfig& with_pretrain_epochs(int e) {
    pretrain_epochs = e;
    return *this;
  }
  PipelineConfig& with_drift_floor_snr(double db) {
    drift_floor_snr = db;
    return *this;
  }
  PipelineConfig& with_workers(std::size_t n) {
    workers = n;
    return *this;
  }
  PipelineConfig& with_workdir(std::string dir) {
    workdir = std::move(dir);
    return *this;
  }
  PipelineConfig& with_max_steps(int n) {
    max_steps = n;
    return *this;
  }
  PipelineConfig& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
};

/// Point-in-time pipeline snapshot (stats() — safe to call concurrently
/// with a running stream).
using PipelineStats = vf::pipeline::InsituStats;

class Pipeline {
 public:
  /// Validates the config and builds the serve tier; no training happens
  /// until start(). Throws std::invalid_argument for an empty workdir or
  /// an unknown dataset/sampler.
  explicit Pipeline(PipelineConfig config);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Ingest step 0: pretrain synchronously and publish the first
  /// generation. Queries are serveable from here on. Idempotent.
  void start();

  /// Ingest the next timestep (starting if needed). Returns false once
  /// the driver has emitted max_steps — the fine-tune may still be
  /// running in the background (drain() to wait).
  bool step();

  /// Wait for every queued and in-flight fine-tune (and its publish).
  void drain();

  [[nodiscard]] PipelineStats stats() const;

  /// Current published generation / its SNR (the `ready` verb's fields).
  [[nodiscard]] std::uint64_t generation() const;
  [[nodiscard]] double last_snr_db() const;

  /// Point query against the currently-served generation (nullopt =
  /// shed; retry). The async form exposes the future for callers probing
  /// hot-swap liveness.
  [[nodiscard]] std::optional<std::future<vf::serve::PointResponse>> submit(
      std::vector<vf::field::Vec3> points);
  [[nodiscard]] vf::serve::PointResponse query(
      std::vector<vf::field::Vec3> points);

  /// Runtime drift-floor override (tests trip fallback deterministically
  /// by raising the floor above a measured healthy SNR).
  void set_drift_floor(double floor_snr_db);

  /// The newest finished step's (immutable) model, for archival flows
  /// that outlive the stream — null before start().
  [[nodiscard]] std::shared_ptr<const vf::core::FcnnModel> model() const;

  /// The underlying serve tier / engine, for operational surfaces (vfctl
  /// wires the TCP listener straight to the router).
  [[nodiscard]] vf::serve::ShardRouter& router();
  [[nodiscard]] vf::pipeline::InsituPipeline& engine();
  [[nodiscard]] vf::pipeline::SimulationDriver& driver();

  [[nodiscard]] const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
  std::unique_ptr<vf::pipeline::SimulationDriver> driver_;
  std::unique_ptr<vf::pipeline::InsituPipeline> engine_;
  bool started_ = false;
};

}  // namespace vf::api
