#pragma once
// Quantized inference path: reduced-precision packed-GEMM forward pass.
//
// The reconstruction MLP is inference-bound once trained: ~370k FLOPs per
// void point through the paper's 23-512-256-128-64-16-4 stack. This module
// trades weight/activation precision for arithmetic density. Weights are
// quantized ONCE into pre-packed micro-panels (fp32, fp16, or int8 + per-
// output-column scales) and the forward pass runs a single-precision
// register-tiled GEMM — twice the SIMD lanes of the fp64 path — with the
// bias+ReLU epilogue fused, converting back to double only at the output.
//
// Activations are staged in fp32 and, for the Fp16/Int8 policies, snapped
// onto the storage grid between layers (round-trip through the fp16 codec /
// a per-row symmetric int8 grid), so results match what dedicated
// half/int8 hardware units would produce up to fp32 accumulation order.
// Every row is computed independently of the others, so how rows are
// chunked or batched never changes a result.
// Accumulation is always fp32 (exact for int8 products at the model's layer
// widths: 512 * 127^2 < 2^24).
//
// Quality is enforced by the SNR-regression guardrail suite
// (tests/core_quant_snr_test.cpp): a quantized reconstruction must stay
// within a fixed delta of the fp64 path's paper-metric SNR on every
// dataset, so quantization can never silently degrade reconstruction.
//
// The fp16 codec is a portable bit-twiddling implementation (IEEE 754
// binary16, round-to-nearest-even) — no _Float16 dependency, so the path
// behaves identically on compilers/targets without native half support.

#include <cstdint>
#include <string>
#include <vector>

#include "vf/nn/matrix.hpp"
#include "vf/nn/network.hpp"
#include "vf/util/aligned.hpp"

namespace vf::nn {

/// Inference precision policy. None = the fp64 Network::infer path.
enum class QuantPolicy : std::uint8_t { None = 0, Fp32 = 1, Fp16 = 2,
                                        Int8 = 3 };

[[nodiscard]] const char* to_string(QuantPolicy policy);

/// Parse "none" / "fp32" / "fp16" / "int8" (throws std::invalid_argument).
[[nodiscard]] QuantPolicy quant_policy_from_name(const std::string& name);

/// IEEE 754 binary16 codec, round-to-nearest-even, with inf/NaN and
/// subnormal handling. Exposed for the unit tests.
[[nodiscard]] std::uint16_t fp16_encode(float value);
[[nodiscard]] float fp16_decode(std::uint16_t h);

/// Per-thread scratch for QuantizedNetwork::infer: fp32 activation
/// ping-pong buffers plus the per-layer fp32 decode of fp16/int8 weight
/// panels. The decode is cached across infer() calls keyed on the network's
/// generation id, so a long-lived scratch (streaming tiles, serve workers)
/// pays the decode once per quantized model, not once per chunk.
struct QuantScratch {
  vf::util::AlignedVector<float> act_a;
  vf::util::AlignedVector<float> act_b;
  std::vector<vf::util::AlignedVector<float>> wdec;
  std::uint64_t wdec_generation = 0;

  /// Scratch footprint in double-equivalents (peak-memory accounting).
  [[nodiscard]] std::size_t element_count() const {
    std::size_t floats = act_a.capacity() + act_b.capacity();
    for (const auto& w : wdec) floats += w.capacity();
    return (floats + 1) / 2;
  }
};

/// An immutable reduced-precision copy of a dense/ReLU Network, weights
/// pre-packed into the panel layout the fp32 micro-kernel consumes.
/// Queries are const and thread-safe; each caller brings a QuantScratch.
class QuantizedNetwork {
 public:
  QuantizedNetwork() = default;

  /// Quantize `net` (must be a dense/ReLU stack, e.g. Network::mlp).
  /// Throws std::invalid_argument on unsupported layers or policy None.
  QuantizedNetwork(const Network& net, QuantPolicy policy);

  [[nodiscard]] bool empty() const { return layers_.empty(); }
  [[nodiscard]] QuantPolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }

  /// Resident bytes of the packed weights/biases (model-registry budget).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Process-unique id of this quantization (0 = default-constructed).
  /// QuantScratch keys its weight-decode cache on it; a pointer key would
  /// go stale when a network is rebuilt in place (serve model eviction).
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Forward pass: `input` (n x in_features, double) -> `output` (n x
  /// out_features, double). Rows stream through in `row_batch` chunks so
  /// the fp32 staging stays cache-sized. `output` must not alias `input`.
  void infer(const Matrix& input, Matrix& output, QuantScratch& scratch,
             std::size_t row_batch = 8192) const;

 private:
  struct QLayer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t out_padded = 0;  // out rounded up to the panel width
    bool relu = false;
    // Exactly one of wf / wh / wq holds the packed panels per policy.
    vf::util::AlignedVector<float> wf;
    vf::util::AlignedVector<std::uint16_t> wh;
    vf::util::AlignedVector<std::int8_t> wq;
    vf::util::AlignedVector<float> scale;  // int8 per-output-column scales
    vf::util::AlignedVector<float> bias;
  };

  std::vector<QLayer> layers_;
  QuantPolicy policy_ = QuantPolicy::None;
  std::size_t max_width_ = 0;   // widest staged activation row
  std::uint64_t generation_ = 0;
};

}  // namespace vf::nn
