#include "vf/api/reconstruct.hpp"

#include <stdexcept>
#include <utility>

#include "vf/interp/methods.hpp"
#include "vf/obs/obs.hpp"
#include "vf/util/timer.hpp"

namespace vf::api {

using vf::core::FcnnModel;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::sampling::SampleCloud;

const char* to_string(Method m) {
  switch (m) {
    case Method::Auto: return "auto";
    case Method::FcnnStream: return "fcnn_stream";
    case Method::Nearest: return "nearest";
    case Method::Shepard: return "shepard";
    case Method::Linear: return "linear";
    case Method::Natural: return "natural";
    case Method::Rbf: return "rbf";
  }
  return "unknown";
}

Method method_from_name(const std::string& name) {
  for (Method m : {Method::Auto, Method::FcnnStream, Method::Nearest,
                   Method::Shepard, Method::Linear, Method::Natural,
                   Method::Rbf}) {
    if (name == to_string(m)) return m;
  }
  throw std::invalid_argument("vf::api: unknown method '" + name + "'");
}

namespace {

vf::interp::Method interp_method(Method m) {
  switch (m) {
    case Method::Nearest: return vf::interp::Method::Nearest;
    case Method::Shepard: return vf::interp::Method::Shepard;
    case Method::Linear: return vf::interp::Method::Linear;
    case Method::Natural: return vf::interp::Method::Natural;
    case Method::Rbf: return vf::interp::Method::Rbf;
    default:
      throw std::logic_error("vf::api: not a classical method");
  }
}

/// Resolve Auto against the configured model source.
Method resolve(const ReconstructOptions& o) {
  if (o.method != Method::Auto) return o.method;
  return (o.model != nullptr || !o.model_path.empty()) ? Method::FcnnStream
                                                       : Method::Shepard;
}

/// The facade's FCNN engine, created on first use from the configured
/// model source.
vf::core::FcnnReconstructor& fcnn_engine(
    std::unique_ptr<vf::core::FcnnReconstructor>& engine,
    const ReconstructOptions& o) {
  if (!engine) {
    if (o.model != nullptr) {
      engine = std::make_unique<vf::core::FcnnReconstructor>(*o.model,
                                                             o.engine);
    } else if (!o.model_path.empty()) {
      engine = std::make_unique<vf::core::FcnnReconstructor>(
          FcnnModel::load(o.model_path), o.engine);
    } else {
      throw std::invalid_argument(
          "vf::api::Reconstructor: FCNN method needs a model or model_path");
    }
  }
  return *engine;
}

}  // namespace

struct Reconstructor::Impl {
  /// The one FCNN engine. It packs the model (loaded from disk or read
  /// through the borrowed pointer) once and holds that packed copy, so the
  /// borrowed model need not outlive it. Serves both query shapes and owns
  /// their bound cloud.
  std::unique_ptr<vf::core::FcnnReconstructor> fcnn;

  std::unique_ptr<vf::interp::Reconstructor> classical;
  vf::interp::Method classical_method{};
  /// Bound cloud for the classical point estimators.
  vf::core::BoundCloud bound;
};

Reconstructor::Reconstructor(ReconstructOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>()) {}

Reconstructor::~Reconstructor() = default;
Reconstructor::Reconstructor(Reconstructor&&) noexcept = default;
Reconstructor& Reconstructor::operator=(Reconstructor&&) noexcept = default;

ReconstructResult Reconstructor::reconstruct(const SampleCloud& cloud,
                                             const UniformGrid3& grid) {
  VF_OBS_SPAN("api/reconstruct");
  vf::util::Timer timer;  // vf-lint: allow(raw-timer) feeds ReconstructStats
  ReconstructResult result;
  const Method method = resolve(options_);

  if (options_.resilient) {
    if (options_.model_path.empty()) {
      throw std::invalid_argument(
          "vf::api::Reconstructor: resilient mode needs model_path");
    }
    result.field = vf::core::reconstruct_resilient(
        options_.model_path, cloud, grid, result.report, options_.engine);
    result.stats.method = "resilient";
  } else if (method == Method::FcnnStream) {
    result.field = fcnn_engine(impl_->fcnn, options_)
                       .reconstruct(cloud, grid, result.report);
    result.stats.method = to_string(method);
  } else {
    const auto im = interp_method(method);
    if (!impl_->classical || impl_->classical_method != im) {
      impl_->classical = vf::interp::make_interpolator(im);
      impl_->classical_method = im;
    }
    result.field = impl_->classical->reconstruct(cloud, grid);
    result.report.input_points = cloud.size();
    result.report.predicted_points =
        static_cast<std::size_t>(grid.point_count());
    result.stats.method = to_string(method);
  }

  result.stats.points = static_cast<std::size_t>(grid.point_count());
  result.stats.seconds = timer.seconds();
  return result;
}

ReconstructResult Reconstructor::reconstruct_points(
    const SampleCloud& cloud, const std::vector<Vec3>& points) {
  VF_OBS_SPAN("api/reconstruct_points");
  vf::util::Timer timer;  // vf-lint: allow(raw-timer) feeds ReconstructStats
  const Method method = resolve(options_);
  if (method != Method::FcnnStream && method != Method::Shepard &&
      method != Method::Nearest) {
    throw std::invalid_argument(
        std::string("vf::api: point queries support fcnn_stream/shepard/"
                    "nearest, not ") +
        to_string(method));
  }

  ReconstructResult result;
  if (method == Method::FcnnStream) {
    result.values = fcnn_engine(impl_->fcnn, options_)
                        .reconstruct_points(cloud, points, result.report);
  } else {
    // The index kind follows engine options; Auto resolves against this
    // call's query count.
    auto& bound = impl_->bound;
    bound.bind(cloud, options_.engine.index, points.size());
    if (bound.size() == 0) {
      throw std::invalid_argument(
          "vf::api: point queries need at least one usable sample");
    }
    result.report = bound.report();
    const auto& index = bound.index();
    const auto& values = bound.values();
    std::vector<vf::spatial::Neighbor> nbrs;
    result.values.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (method == Method::Shepard) {
        result.values[i] =
            vf::interp::modified_shepard(index, values, points[i], nbrs);
      } else {
        index.knn(points[i], 1, nbrs);
        result.values[i] = values[nbrs.front().index];
      }
    }
    result.report.predicted_points = points.size();
  }

  result.stats.method = to_string(method);
  result.stats.points = points.size();
  result.stats.seconds = timer.seconds();
  return result;
}

ReconstructResult reconstruct(const ReconstructRequest& request) {
  if (request.cloud == nullptr) {
    throw std::invalid_argument("vf::api::reconstruct: cloud is required");
  }
  const bool has_grid = request.grid != nullptr;
  const bool has_points = request.points != nullptr;
  if (has_grid == has_points) {
    throw std::invalid_argument(
        "vf::api::reconstruct: set exactly one of grid / points");
  }
  Reconstructor rec(request.options);
  return has_grid ? rec.reconstruct(*request.cloud, *request.grid)
                  : rec.reconstruct_points(*request.cloud, *request.points);
}

}  // namespace vf::api
