#pragma once
// A network's inference form: its weights packed once, at a precision.
//
// Training changes the weights every step, so the training GEMMs pack
// them on every call (detail::gemm_blocked). A model that only answers
// queries — the grid engine's, or a served registry entry — packs them
// once here, into the panel layout its micro-kernel reads, and every
// thread then reads that one immutable copy. Packing is what dominated a
// forward over a few rows: the paper network's 1.48 MB of weights were
// repacked on every serve micro-batch.
//
// QuantPolicy::None packs fp64 panels for detail::gemm_packed<double>; its
// output equals the training forward's (Network::forward) bit for bit on
// finite inputs (same Kc panel boundaries, same k order). The
// reduced-precision policies trade weight/activation precision for
// arithmetic density — ~370k FLOPs per void point through the paper's
// 23-512-256-128-64-16-4 stack — running the same micro-kernel
// instantiated for float (detail::gemm_packed<float>), with twice the SIMD
// lanes of the fp64 path and the bias+ReLU epilogue fused, converting back
// to double only at the output. Their weights are rounded onto the
// policy's grid (fp16, or int8 with per-output-column scales) and decoded
// to fp32 panels once, at build; the decode is exact, so the panels hold
// exactly the values a dedicated half/int8 unit would see.
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

/// Inference precision policy. None = fp64, bit-identical to the training
/// forward on finite inputs.
enum class QuantPolicy : std::uint8_t { None = 0, Fp32 = 1, Fp16 = 2,
                                        Int8 = 3 };

[[nodiscard]] const char* to_string(QuantPolicy policy);

/// Parse "none" / "fp32" / "fp16" / "int8" (throws std::invalid_argument).
[[nodiscard]] QuantPolicy quant_policy_from_name(const std::string& name);

/// IEEE 754 binary16 codec, round-to-nearest-even, with inf/NaN and
/// subnormal handling. Exposed for the unit tests.
[[nodiscard]] std::uint16_t fp16_encode(float value);
[[nodiscard]] float fp16_decode(std::uint16_t h);

/// One layer as QuantizedNetwork reads it: its kind and, for a dense
/// layer, its parameters viewed in place — row-major `in x out` weights
/// and `out` biases, as doubles with no alignment guarantee (a Matrix's
/// storage, or a layer section of a model file's bytes). The viewed bytes
/// need only outlive the QuantizedNetwork constructor.
struct LayerView {
  std::string kind;
  std::size_t in = 0;
  std::size_t out = 0;
  const void* weights = nullptr;
  const void* bias = nullptr;
};

/// Per-thread scratch for QuantizedNetwork::infer: activation ping-pong
/// buffers, fp32 for the reduced-precision policies and fp64 for None.
/// Each grows to (row chunk x the widest layer it holds) once and is
/// reused after.
struct QuantScratch {
  vf::util::AlignedVector<float> act_a;
  vf::util::AlignedVector<float> act_b;
  vf::util::AlignedVector<double> act64_a;
  vf::util::AlignedVector<double> act64_b;

  /// Scratch footprint in double-equivalents (peak-memory accounting).
  [[nodiscard]] std::size_t element_count() const {
    return (act_a.capacity() + act_b.capacity() + 1) / 2 +
           act64_a.capacity() + act64_b.capacity();
  }
};

/// A dense/ReLU network packed once at a QuantPolicy (see the header
/// note). Immutable: queries are const and thread-safe, each caller
/// bringing a QuantScratch.
class QuantizedNetwork {
 public:
  QuantizedNetwork() = default;

  /// Pack `net` (must be a dense/ReLU stack, e.g. Network::mlp). Throws
  /// std::invalid_argument on unsupported layers or widths that do not
  /// chain.
  QuantizedNetwork(const Network& net, QuantPolicy policy);

  /// Pack layers viewed in place; the same checks as above.
  QuantizedNetwork(const std::vector<LayerView>& layers, QuantPolicy policy);

  [[nodiscard]] bool empty() const { return layers_.empty(); }
  [[nodiscard]] QuantPolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }

  /// Resident bytes of the packed weights and biases plus this object,
  /// counted as FcnnModel::memory_bytes counts a row-major model.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Forward pass: `input` (n x in_features, double) -> `output` (n x
  /// out_features, double). Rows stream through in `row_batch` chunks so
  /// the activation staging stays cache-sized. `output` must not alias
  /// `input`.
  void infer(const Matrix& input, Matrix& output, QuantScratch& scratch,
             std::size_t row_batch = 8192) const;

 private:
  /// One dense layer (with its ReLU fused): its packed panels, then its
  /// biases, in fp64 under None and in fp32 otherwise (the other vector
  /// stays empty), starting at element `at`, the first 64-byte boundary.
  /// The vectors are plain allocations with a cache line of slack: with
  /// aligned allocations, a registry that kept loading and evicting models
  /// never reused the freed panels, and its heap grew by most of a model
  /// per load.
  struct QLayer {
    std::size_t in = 0;
    std::size_t out = 0;
    bool relu = false;
    std::vector<double> f64;
    std::vector<float> f32;
    std::size_t at = 0;
  };

  void infer_fp64(const Matrix& input, Matrix& output, QuantScratch& scratch,
                  std::size_t row_batch) const;
  void infer_fp32(const Matrix& input, Matrix& output, QuantScratch& scratch,
                  std::size_t row_batch) const;

  std::vector<QLayer> layers_;
  QuantPolicy policy_ = QuantPolicy::None;
  std::size_t max_width_ = 0;   // widest staged activation row
};

}  // namespace vf::nn
