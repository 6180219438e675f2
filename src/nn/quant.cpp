#include "vf/nn/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#if defined(__F16C__)
#include <immintrin.h>
#endif

#include "vf/nn/dense.hpp"
#include "vf/nn/kernels.hpp"
#include "vf/obs/obs.hpp"
#include "vf/util/contract.hpp"

namespace vf::nn {

const char* to_string(QuantPolicy policy) {
  switch (policy) {
    case QuantPolicy::None: return "none";
    case QuantPolicy::Fp32: return "fp32";
    case QuantPolicy::Fp16: return "fp16";
    case QuantPolicy::Int8: return "int8";
  }
  return "none";
}

QuantPolicy quant_policy_from_name(const std::string& name) {
  if (name == "none") return QuantPolicy::None;
  if (name == "fp32") return QuantPolicy::Fp32;
  if (name == "fp16") return QuantPolicy::Fp16;
  if (name == "int8") return QuantPolicy::Int8;
  throw std::invalid_argument("unknown quantization policy: " + name);
}

std::uint16_t fp16_encode(float value) {
  std::uint32_t x = 0;
  std::memcpy(&x, &value, sizeof(x));
  const auto sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t abs = x & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // inf / NaN (NaN keeps a quiet payload bit)
    return static_cast<std::uint16_t>(
        sign | 0x7c00u | (abs > 0x7f800000u ? 0x0200u : 0u));
  }
  const std::uint32_t exp32 = abs >> 23;
  if (exp32 >= 113) {  // normal half range: exponent >= 2^-14
    std::uint32_t out = ((exp32 - 112) << 10) | ((abs & 0x7fffffu) >> 13);
    const std::uint32_t rem = abs & 0x1fffu;
    // Round to nearest even; a mantissa carry correctly bumps the exponent
    // and saturates to inf at the top.
    if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;
    if (out >= 0x7c00u) out = 0x7c00u;
    return static_cast<std::uint16_t>(sign | out);
  }
  if (exp32 >= 102) {  // subnormal half: shift the implicit-1 mantissa down
    const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
    const std::uint32_t shift = 126 - exp32;  // in [14, 24]
    std::uint32_t out = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t half = 1u << (shift - 1u);
    if (rem > half || (rem == half && (out & 1u))) ++out;
    return static_cast<std::uint16_t>(sign | out);
  }
  return sign;  // underflow to signed zero
}

float fp16_decode(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  std::uint32_t bits = 0;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal: renormalise into the float format. After e shifts the
      // leading 1 sits at bit 10, so the value is 1.f x 2^(-14 - e) and
      // the float exponent field is 127 - 14 - e = 113 - e.
      std::uint32_t m = mant;
      std::uint32_t e = 0;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      bits = sign | ((113u - e) << 23) | ((m & 0x3ffu) << 13);
    }
  } else if (exp == 0x1fu) {
    bits = sign | 0x7f800000u | (mant << 13);
  } else {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float out = 0.0f;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

namespace {

/// Snap every value onto the fp16 grid (what a half-precision activation
/// buffer would hold). The hardware conversions (VCVTPS2PH/VCVTPH2PS with
/// round-to-nearest-even) are bit-identical to the portable codec; without
/// them the per-layer activation snap dominates the quantized forward pass.
void snap_fp16(float* v, std::size_t n) {
  std::size_t i = 0;
#if defined(__F16C__)
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm256_cvtps_ph(_mm256_loadu_ps(v + i), _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_ps(v + i, _mm256_cvtph_ps(h));
  }
#endif
  for (; i < n; ++i) v[i] = fp16_decode(fp16_encode(v[i]));
}

/// Snap each of `rows` rows of `width` values onto its own symmetric int8
/// grid. A per-row scale keeps a point's answer independent of the other
/// rows that share its chunk (a grid tile, a serve micro-batch).
void snap_int8(float* v, std::size_t rows, std::size_t width) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = v + r * width;
    float amax = 0.0f;
    for (std::size_t i = 0; i < width; ++i) {
      amax = std::max(amax, std::fabs(row[i]));
    }
    if (!(amax > 0.0f)) continue;  // all-zero (or non-finite: leave for repair)
    const float step = amax / 127.0f;
    const float inv = 127.0f / amax;
#pragma omp simd
    for (std::size_t i = 0; i < width; ++i) {
      row[i] = std::nearbyintf(row[i] * inv) * step;
    }
  }
}

/// Element `i` of doubles viewed as possibly unaligned bytes.
double load_double(const void* base, std::size_t i) {
  double v = 0.0;
  std::memcpy(&v, static_cast<const unsigned char*>(base) + i * sizeof v,
              sizeof v);
  return v;
}

/// Pack one dense layer's weights into the fp32 panels gemm_packed<float>
/// reads, each rounded onto `policy`'s grid and decoded once here, in
/// row-major order: fp16 through the codec, int8 as the integer times its
/// column's scale.
void pack_fp32_panels(const LayerView& l, QuantPolicy policy, float* dst) {
  std::vector<float> rounded(l.in * l.out);
  switch (policy) {
    case QuantPolicy::Fp32:
      for (std::size_t e = 0; e < rounded.size(); ++e) {
        rounded[e] = static_cast<float>(load_double(l.weights, e));
      }
      break;
    case QuantPolicy::Fp16:
      for (std::size_t e = 0; e < rounded.size(); ++e) {
        rounded[e] = fp16_decode(
            fp16_encode(static_cast<float>(load_double(l.weights, e))));
      }
      break;
    case QuantPolicy::Int8: {
      // Symmetric per-output-column scales preserve each neuron's dynamic
      // range independently (the standard weight-quantization granularity).
      std::vector<float> scale(l.out);
      for (std::size_t c = 0; c < l.out; ++c) {
        double amax = 0.0;
        for (std::size_t krow = 0; krow < l.in; ++krow) {
          amax = std::max(amax,
                          std::fabs(load_double(l.weights, krow * l.out + c)));
        }
        scale[c] = amax > 0.0 ? static_cast<float>(amax / 127.0) : 1.0f;
      }
      for (std::size_t e = 0; e < rounded.size(); ++e) {
        const float s = scale[e % l.out];
        const auto q = static_cast<std::int8_t>(std::clamp(
            std::lround(load_double(l.weights, e) / static_cast<double>(s)),
            -127L, 127L));
        rounded[e] = static_cast<float>(q) * s;
      }
      break;
    }
    case QuantPolicy::None:
      break;  // fp64 panels are packed straight from the layer's bytes
  }
  detail::pack_b_panels(l.in, l.out, rounded.data(), dst);
}

/// Size `v` for `n` elements plus a cache line of slack and return the
/// first 64-byte boundary in it, whose index goes to `at`.
template <typename T>
T* line_start(std::vector<T>& v, std::size_t n, std::size_t& at) {
  constexpr std::size_t kLine = 64;
  v.resize(n + kLine / sizeof(T));
  void* p = v.data();
  std::size_t space = v.size() * sizeof(T);
  T* start = static_cast<T*>(std::align(kLine, n * sizeof(T), p, space));
  at = static_cast<std::size_t>(start - v.data());
  return start;
}

std::vector<LayerView> layer_views(const Network& net) {
  std::vector<LayerView> views(net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const Layer& l = net.layer(i);
    views[i].kind = l.kind();
    if (l.kind() != "dense") continue;
    const auto& d = static_cast<const DenseLayer&>(l);
    views[i].in = d.in_features();
    views[i].out = d.out_features();
    views[i].weights = d.weights().data().data();
    views[i].bias = d.bias().data().data();
  }
  return views;
}

}  // namespace

QuantizedNetwork::QuantizedNetwork(const Network& net, QuantPolicy policy)
    : QuantizedNetwork(layer_views(net), policy) {}

QuantizedNetwork::QuantizedNetwork(const std::vector<LayerView>& layers,
                                   QuantPolicy policy)
    : policy_(policy) {
  // Each dense layer absorbs a ReLU that follows it.
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerView& l = layers[i];
    if (l.kind != "dense") {
      throw std::invalid_argument(
          "QuantizedNetwork: unsupported layer kind '" + l.kind +
          "' (dense/relu stacks only)");
    }
    if (l.in == 0 || l.out == 0 ||
        (!layers_.empty() && layers_.back().out != l.in)) {
      throw std::invalid_argument(
          "QuantizedNetwork: dense layer widths do not chain");
    }
    QLayer q;
    q.in = l.in;
    q.out = l.out;
    if (i + 1 < layers.size() && layers[i + 1].kind == "relu") {
      q.relu = true;
      ++i;
    }
    max_width_ = std::max({max_width_, q.in, q.out});
    if (policy == QuantPolicy::None) {
      const std::size_t panels = detail::packed_b_size<double>(q.in, q.out);
      double* dst = line_start(q.f64, panels + q.out, q.at);
      detail::pack_b_panels(q.in, q.out, l.weights, dst);
      std::memcpy(dst + panels, l.bias, q.out * sizeof(double));
    } else {
      const std::size_t panels = detail::packed_b_size<float>(q.in, q.out);
      float* dst = line_start(q.f32, panels + q.out, q.at);
      pack_fp32_panels(l, policy, dst);
      for (std::size_t c = 0; c < q.out; ++c) {
        dst[panels + c] = static_cast<float>(load_double(l.bias, c));
      }
    }
    layers_.push_back(std::move(q));
  }
  if (layers_.empty()) {
    throw std::invalid_argument("QuantizedNetwork: empty network");
  }
}

std::size_t QuantizedNetwork::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const QLayer& q : layers_) {
    bytes += q.f64.capacity() * sizeof(double) +
             q.f32.capacity() * sizeof(float);
  }
  return bytes;
}

void QuantizedNetwork::infer(const Matrix& input, Matrix& output,
                             QuantScratch& scratch,
                             std::size_t row_batch) const {
  VF_REQUIRE(&input != &output, "QuantizedNetwork::infer: output aliases");
  if (layers_.empty()) {
    throw std::logic_error("QuantizedNetwork::infer: empty network");
  }
  if (input.cols() != layers_.front().in) {
    throw std::invalid_argument(
        "QuantizedNetwork::infer: input width mismatch");
  }
  output.resize(input.rows(), layers_.back().out);
  if (input.rows() == 0) return;
  VF_OBS_COUNT("nn.quant.infer_rows", input.rows());
  row_batch = std::max<std::size_t>(1, row_batch);
  if (policy_ == QuantPolicy::None) {
    infer_fp64(input, output, scratch, row_batch);
  } else {
    infer_fp32(input, output, scratch, row_batch);
  }
}

void QuantizedNetwork::infer_fp64(const Matrix& input, Matrix& output,
                                  QuantScratch& scratch,
                                  std::size_t row_batch) const {
  const std::size_t m_total = input.rows();
  const std::size_t mb_cap = std::min(row_batch, m_total);
  // Hidden layer li writes buffer li % 2: size each for its widest layer.
  std::size_t width[2] = {0, 0};
  for (std::size_t li = 0; li + 1 < layers_.size(); ++li) {
    width[li % 2] = std::max(width[li % 2], layers_[li].out);
  }
  scratch.act64_a.resize(mb_cap * width[0]);
  scratch.act64_b.resize(mb_cap * width[1]);
  double* bufs[2] = {scratch.act64_a.data(), scratch.act64_b.data()};
  for (std::size_t b = 0; b < m_total; b += row_batch) {
    const std::size_t mb = std::min(row_batch, m_total - b);
    // The first layer reads the input rows in place and the last writes
    // the output rows in place; hidden activations ping-pong.
    const double* cur = input.row(b);
    std::size_t ld = input.cols();
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const QLayer& q = layers_[li];
      const bool last = li + 1 == layers_.size();
      double* dst = last ? output.row(b) : bufs[li % 2];
      const double* w = q.f64.data() + q.at;
      detail::gemm_packed(mb, q.out, q.in, cur, ld, w, dst, q.out,
                          w + detail::packed_b_size<double>(q.in, q.out),
                          q.relu);
      cur = dst;
      ld = q.out;
    }
  }
}

void QuantizedNetwork::infer_fp32(const Matrix& input, Matrix& output,
                                  QuantScratch& scratch,
                                  std::size_t row_batch) const {
  const std::size_t m_total = input.rows();
  const std::size_t out_cols = layers_.back().out;
  const std::size_t mb_cap = std::min(row_batch, m_total);
  scratch.act_a.resize(mb_cap * max_width_);
  scratch.act_b.resize(mb_cap * max_width_);

  for (std::size_t b = 0; b < m_total; b += row_batch) {
    const std::size_t mb = std::min(row_batch, m_total - b);
    // Stage this chunk's rows to fp32 (and onto the policy's activation
    // grid — inputs are quantized exactly like hidden activations).
    float* cur = scratch.act_a.data();
    const std::size_t in0 = layers_.front().in;
    for (std::size_t r = 0; r < mb; ++r) {
      const double* src = input.row(b + r);
      float* dst = cur + r * in0;
#pragma omp simd
      for (std::size_t c = 0; c < in0; ++c) {
        dst[c] = static_cast<float>(src[c]);
      }
    }
    if (policy_ == QuantPolicy::Fp16) snap_fp16(cur, mb * in0);
    if (policy_ == QuantPolicy::Int8) snap_int8(cur, mb, in0);

    float* nxt = scratch.act_b.data();
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const QLayer& q = layers_[li];
      const float* w = q.f32.data() + q.at;
      detail::gemm_packed(mb, q.out, q.in, cur, q.in, w, nxt, q.out,
                          w + detail::packed_b_size<float>(q.in, q.out),
                          q.relu);
      if (li + 1 < layers_.size()) {
        // Hidden activations live on the storage grid between layers.
        if (policy_ == QuantPolicy::Fp16) snap_fp16(nxt, mb * q.out);
        if (policy_ == QuantPolicy::Int8) snap_int8(nxt, mb, q.out);
        std::swap(cur, nxt);
      } else {
        for (std::size_t r = 0; r < mb; ++r) {
          const float* src = nxt + r * out_cols;
          double* dst = output.row(b + r);
#pragma omp simd
          for (std::size_t c = 0; c < out_cols; ++c) {
            dst[c] = static_cast<double>(src[c]);
          }
        }
      }
    }
  }
}

}  // namespace vf::nn
