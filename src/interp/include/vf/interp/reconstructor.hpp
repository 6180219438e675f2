#pragma once
// Common interface for point-cloud -> regular-grid reconstruction.
//
// These are the classical methods the paper surveys in §III-B and benchmarks
// against the FCNN in Figs 9/10: piecewise-linear (Delaunay), natural
// neighbour (discrete Sibson), modified Shepard, nearest neighbour, and RBF.
// Every method consumes an unstructured SampleCloud and produces a
// ScalarField on an arbitrary target grid (which need not match the grid the
// cloud was sampled from — Experiment 3 reconstructs onto a finer grid).

#include <memory>
#include <string>
#include <vector>

#include "vf/field/scalar_field.hpp"
#include "vf/sampling/sample_cloud.hpp"

namespace vf::interp {

class Reconstructor {
 public:
  virtual ~Reconstructor() = default;

  /// Short identifier used in bench output ("linear", "nearest", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Reconstruct the full field on `grid` from the sampled cloud.
  /// Thread policy is an implementation detail of each method.
  [[nodiscard]] virtual vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid) const = 0;
};

/// Every classical method, as a closed enum. The canonical factory input:
/// switch-style dispatch elsewhere in the repo (the resilient fallback, the
/// vf::api facade, the serving layer) routes through this instead of
/// hand-rolled name comparisons.
enum class Method {
  Nearest,
  Shepard,
  Linear,       // parallel Delaunay (the paper's strong baseline)
  LinearSeq,    // single-threaded Delaunay
  LinearNaive,  // cold point location per query (paper's "initial" impl)
  Natural,
  Rbf,
};

/// Canonical name of `m` ("nearest", "shepard", "linear", "linear_seq",
/// "linear_naive", "natural", "rbf").
[[nodiscard]] const char* to_string(Method m);

/// Parse a canonical name back to the enum (throws std::invalid_argument).
[[nodiscard]] Method method_from_name(const std::string& name);

/// Construct the interpolator for `method`, wrapped in the vf::obs
/// instrumentation decorator (per-method call counter + latency histogram).
std::unique_ptr<Reconstructor> make_interpolator(Method method);

/// Name-based convenience shim over method_from_name + make_interpolator.
std::unique_ptr<Reconstructor> make_reconstructor(const std::string& name);

/// Names of all registered reconstructors, in paper order.
std::vector<std::string> reconstructor_names();

}  // namespace vf::interp
