#include "vf/interp/reconstructor.hpp"

#include <stdexcept>
#include <utility>

#include "vf/interp/methods.hpp"
#include "vf/obs/obs.hpp"

namespace vf::interp {

namespace {

std::unique_ptr<Reconstructor> make_raw(Method method) {
  switch (method) {
    case Method::Nearest:
      return std::make_unique<NearestNeighborReconstructor>();
    case Method::Shepard:
      return std::make_unique<ShepardReconstructor>();
    case Method::Linear:
      return std::make_unique<LinearDelaunayReconstructor>(
          LinearDelaunayReconstructor::Mode::Parallel);
    case Method::LinearSeq:
      return std::make_unique<LinearDelaunayReconstructor>(
          LinearDelaunayReconstructor::Mode::Sequential);
    case Method::LinearNaive:
      return std::make_unique<LinearDelaunayReconstructor>(
          LinearDelaunayReconstructor::Mode::Naive);
    case Method::Natural:
      return std::make_unique<NaturalNeighborReconstructor>();
    case Method::Rbf:
      return std::make_unique<RbfReconstructor>();
  }
  throw std::invalid_argument("make_interpolator: bad Method enum value");
}

/// Observability decorator around any classical method: one span plus a
/// call counter and a latency histogram per method, so the five method
/// classes stay untouched. Metric names are dynamic (per method), so this
/// calls the registry directly instead of using the static-caching macros.
class InstrumentedReconstructor final : public Reconstructor {
 public:
  explicit InstrumentedReconstructor(std::unique_ptr<Reconstructor> inner)
      : inner_(std::move(inner)),
        span_name_("interp/" + inner_->name()),
        counter_name_("interp." + inner_->name() + ".calls"),
        hist_name_("interp." + inner_->name() + ".seconds") {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid) const override {
#if VF_OBS_ENABLED
    const vf::obs::Span span(span_name_.c_str());
    const vf::obs::ScopedHistTimer timer(hist_name_.c_str());
    if (vf::obs::enabled()) vf::obs::counter(counter_name_).add(1);
#endif
    return inner_->reconstruct(cloud, grid);
  }

 private:
  std::unique_ptr<Reconstructor> inner_;
  std::string span_name_;
  std::string counter_name_;
  std::string hist_name_;
};

}  // namespace

const char* to_string(Method m) {
  switch (m) {
    case Method::Nearest: return "nearest";
    case Method::Shepard: return "shepard";
    case Method::Linear: return "linear";
    case Method::LinearSeq: return "linear_seq";
    case Method::LinearNaive: return "linear_naive";
    case Method::Natural: return "natural";
    case Method::Rbf: return "rbf";
  }
  return "unknown";
}

Method method_from_name(const std::string& name) {
  for (Method m : {Method::Nearest, Method::Shepard, Method::Linear,
                   Method::LinearSeq, Method::LinearNaive, Method::Natural,
                   Method::Rbf}) {
    if (name == to_string(m)) return m;
  }
  throw std::invalid_argument("method_from_name: unknown method '" + name +
                              "'");
}

std::unique_ptr<Reconstructor> make_interpolator(Method method) {
  return std::make_unique<InstrumentedReconstructor>(make_raw(method));
}

std::unique_ptr<Reconstructor> make_reconstructor(const std::string& name) {
  return make_interpolator(method_from_name(name));
}

std::vector<std::string> reconstructor_names() {
  return {"linear", "natural", "shepard", "nearest", "rbf"};
}

}  // namespace vf::interp
