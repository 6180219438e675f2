#pragma once
// vf::api — the unified reconstruction facade.
//
// One front door over three engine families: the FCNN engine
// (vf::core::FcnnReconstructor), five classical interpolators behind
// vf::interp, and reconstruct_resilient (never-throw degradation). Pick a
// Method, fill ReconstructOptions, and call either the stateful
// Reconstructor (caches the loaded model, the bound cloud and the chosen
// engine across calls) or the one-shot reconstruct(ReconstructRequest)
// convenience.
//
// Two query shapes are supported:
//   grid mode   — reconstruct a full ScalarField on a UniformGrid3
//                 (every Method);
//   point mode  — predict scalar values at arbitrary positions
//                 (FcnnStream/Auto, Shepard — the one modified Shepard
//                 estimate, vf::interp::modified_shepard — and Nearest;
//                 the mesh-building interpolators are grid-only and
//                 throw).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vf/core/fcnn.hpp"
#include "vf/core/inference.hpp"
#include "vf/core/model.hpp"
#include "vf/core/options.hpp"
#include "vf/core/report.hpp"
#include "vf/core/resilient.hpp"
#include "vf/field/scalar_field.hpp"
#include "vf/interp/reconstructor.hpp"
#include "vf/sampling/sample_cloud.hpp"

namespace vf::api {

/// Every reconstruction engine the repo offers, as one closed enum.
enum class Method {
  Auto,        ///< FcnnStream when a model is configured, Shepard otherwise
  FcnnStream,  ///< trained FCNN, tiled engine (core::FcnnReconstructor)
  Nearest,
  Shepard,
  Linear,
  Natural,
  Rbf,
};

/// Canonical name ("auto", "fcnn_stream", or the classical names).
[[nodiscard]] const char* to_string(Method m);

/// Parse a canonical name back to the enum (throws std::invalid_argument).
[[nodiscard]] Method method_from_name(const std::string& name);

struct ReconstructOptions {
  Method method = Method::Auto;

  /// Model source for the FCNN method: a borrowed, caller-owned model
  /// pointer wins over `model_path`. Either is read once, on first use,
  /// when the engine packs its own copy of the weights; the borrowed model
  /// need only live until then. Classical methods ignore both.
  const vf::core::FcnnModel* model = nullptr;
  std::string model_path;

  /// Never-throw mode (grid queries only): route through
  /// reconstruct_resilient so a missing/corrupt model degrades to the
  /// modified Shepard grid instead of throwing. Requires `model_path`.
  bool resilient = false;

  /// Engine tuning forwarded to the FCNN engine.
  vf::core::ReconstructOptions engine;
};

/// Wall-clock and volume accounting for one facade call.
struct ReconstructStats {
  double seconds = 0.0;
  std::size_t points = 0;       ///< outputs produced (grid points or queries)
  std::string method;           ///< resolved engine name ("fcnn_stream", ...)
};

struct ReconstructResult {
  /// Grid mode: the reconstructed field. Point mode: empty (0-point grid).
  vf::field::ScalarField field;
  /// Point mode: one value per query position. Grid mode: empty.
  std::vector<double> values;
  vf::core::ReconstructReport report;
  ReconstructStats stats;
};

/// One-shot request: sample source, exactly one query shape, options.
struct ReconstructRequest {
  const vf::sampling::SampleCloud* cloud = nullptr;       // required
  const vf::field::UniformGrid3* grid = nullptr;          // grid mode
  const std::vector<vf::field::Vec3>* points = nullptr;   // point mode
  ReconstructOptions options;
};

/// The FCNN point kernel, re-exported from vf::core (vf/core/inference.hpp)
/// for callers that hold their own model and bound cloud.
using vf::core::PointScratch;
using vf::core::predict_points;

/// The stateful facade. Construction is cheap; the model load, the bound
/// cloud and the engine are created lazily and cached across calls. Both
/// query shapes share one model copy and one FCNN engine. Not thread-safe
/// (vf::serve layers its own synchronisation and per-worker scratch on top
/// of predict_points).
class Reconstructor {
 public:
  explicit Reconstructor(ReconstructOptions options = {});
  ~Reconstructor();
  Reconstructor(Reconstructor&&) noexcept;
  Reconstructor& operator=(Reconstructor&&) noexcept;
  Reconstructor(const Reconstructor&) = delete;
  Reconstructor& operator=(const Reconstructor&) = delete;

  /// Grid mode: reconstruct a full field (any Method).
  [[nodiscard]] ReconstructResult reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid);

  /// Point mode: predict values at arbitrary positions
  /// (Auto/FcnnStream/Shepard/Nearest; mesh interpolators throw). The
  /// scrubbed cloud and its index are cached between calls, keyed on the
  /// cloud's id (see core::BoundCloud).
  [[nodiscard]] ReconstructResult reconstruct_points(
      const vf::sampling::SampleCloud& cloud,
      const std::vector<vf::field::Vec3>& points);

  [[nodiscard]] const ReconstructOptions& options() const { return options_; }

 private:
  struct Impl;
  ReconstructOptions options_;
  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience over a throwaway Reconstructor.
[[nodiscard]] ReconstructResult reconstruct(const ReconstructRequest& request);

}  // namespace vf::api
