#include "vf/nn/quant.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include <omp.h>

#if defined(__F16C__)
#include <immintrin.h>
#endif

#include "vf/nn/dense.hpp"
#include "vf/obs/obs.hpp"
#include "vf/util/contract.hpp"
#include "vf/util/parallel.hpp"

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

// fp32 register tile: 8 x 32 floats = 16 full-width SIMD accumulators,
// mirroring the fp64 kernel's 8 x 16 geometry at twice the lanes. The MLP's
// inner dimensions (<= 512) fit one panel, so there is no Kc blocking: each
// tile accumulates the full dot product and fires the bias+ReLU epilogue in
// the same pass.
constexpr std::size_t QMR = 8;
constexpr std::size_t QNR = 32;
constexpr std::size_t QMC = 128;  // packed A row block (QMC x k floats)

// Below this many multiply-adds the fork/join cost dominates any speedup.
constexpr std::size_t kParallelWork = 1 << 15;

/// Pack rows [i0, i0+mc) of the row-major (m x k) activation block into
/// contiguous QMR x k micro-panels, zero-padding the row remainder.
void pack_a_f32(const float* a, std::size_t lda, std::size_t i0,
                std::size_t mc, std::size_t k, float* dst) {
  for (std::size_t ir = 0; ir < mc; ir += QMR) {
    const std::size_t mr = std::min(QMR, mc - ir);
    for (std::size_t i = 0; i < mr; ++i) {
      const float* src = a + (i0 + ir + i) * lda;
      for (std::size_t l = 0; l < k; ++l) dst[l * QMR + i] = src[l];
    }
    for (std::size_t i = mr; i < QMR; ++i) {
      for (std::size_t l = 0; l < k; ++l) dst[l * QMR + i] = 0.0f;
    }
    dst += k * QMR;
  }
}

void micro_kernel_f32(std::size_t k, const float* __restrict ap,
                      const float* __restrict bp, float* __restrict acc) {
  for (std::size_t l = 0; l < k; ++l) {
    const float* a = ap + l * QMR;
    const float* b = bp + l * QNR;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < QMR; ++i) {
      const float av = a[i];
#pragma omp simd
      for (std::size_t j = 0; j < QNR; ++j) acc[i * QNR + j] += av * b[j];
    }
  }
}

void write_tile_f32(const float* acc, float* c, std::size_t ldc,
                    std::size_t mr, std::size_t nr, const float* bias,
                    bool relu) {
  if (mr == QMR && nr == QNR) {
    for (std::size_t i = 0; i < QMR; ++i) {
      float* crow = c + i * ldc;
#pragma omp simd
      for (std::size_t j = 0; j < QNR; ++j) {
        float v = acc[i * QNR + j] + bias[j];
        crow[j] = relu && v < 0.0f ? 0.0f : v;
      }
    }
    return;
  }
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      float v = acc[i * QNR + j] + bias[j];
      crow[j] = relu && v < 0.0f ? 0.0f : v;
    }
  }
}

/// C(m x n) = A(m x k, row-major) * Wpanels + bias, optional ReLU. Wpanels
/// is the pre-packed (k x QNR)-panel weight layout built at quantization.
void sgemm_panels(std::size_t m, std::size_t n, std::size_t k,
                  const float* a, const float* wpanels, const float* bias,
                  bool relu, float* c) {
  VF_OBS_COUNT("nn.quant.gemm_flops", 2 * m * n * k);
  const bool threads =
      vf::util::thread_count() > 1 && m * n * k >= kParallelWork;
  const auto ic_blocks = static_cast<std::int64_t>((m + QMC - 1) / QMC);
  // vf-par: per-thread-scratch — apack is thread-local; each ic-block
  // writes a disjoint row band of C; the packed weights are read-only.
#pragma omp parallel if (threads)
  {
    vf::util::AlignedVector<float> apack(QMC * k);
#pragma omp for schedule(static)
    for (std::int64_t icb = 0; icb < ic_blocks; ++icb) {
      const std::size_t ic = static_cast<std::size_t>(icb) * QMC;
      const std::size_t mc = std::min(QMC, m - ic);
      pack_a_f32(a, k, ic, mc, k, apack.data());
      for (std::size_t jr = 0; jr < n; jr += QNR) {
        const std::size_t nr = std::min(QNR, n - jr);
        const float* bp = wpanels + (jr / QNR) * k * QNR;
        for (std::size_t ir = 0; ir < mc; ir += QMR) {
          const std::size_t mr = std::min(QMR, mc - ir);
          const float* ap = apack.data() + (ir / QMR) * k * QMR;
          alignas(64) float acc[QMR * QNR] = {};
          micro_kernel_f32(k, ap, bp, acc);
          write_tile_f32(acc, c + (ic + ir) * n + jr, n, mr, nr, bias + jr,
                         relu);
        }
      }
    }
  }
}

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

/// Decode a packed fp16 panel buffer to fp32.
void decode_fp16(const std::uint16_t* h, std::size_t n, float* out) {
  std::size_t i = 0;
#if defined(__F16C__)
  for (; i + 8 <= n; i += 8) {
    // vf-lint: allow(cast) unaligned SIMD load intrinsic takes __m128i*
    const auto* src = reinterpret_cast<const __m128i*>(h + i);
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(_mm_loadu_si128(src)));
  }
#endif
  for (; i < n; ++i) out[i] = fp16_decode(h[i]);
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

/// Monotone source for QuantizedNetwork::generation(); 0 stays reserved
/// for the default-constructed (empty) network.
std::atomic<std::uint64_t> g_quant_generation{0};

}  // namespace

QuantizedNetwork::QuantizedNetwork(const Network& net, QuantPolicy policy)
    : policy_(policy),
      generation_(g_quant_generation.fetch_add(1,
                                               std::memory_order_relaxed) +
                  1) {
  if (policy == QuantPolicy::None) {
    throw std::invalid_argument(
        "QuantizedNetwork: policy None means the fp64 path; nothing to build");
  }
  std::size_t i = 0;
  while (i < net.layer_count()) {
    const Layer& l = net.layer(i);
    if (l.kind() != "dense") {
      throw std::invalid_argument(
          "QuantizedNetwork: unsupported layer kind '" + l.kind() +
          "' (dense/relu stacks only)");
    }
    const auto& d = static_cast<const DenseLayer&>(l);
    QLayer q;
    q.in = d.in_features();
    q.out = d.out_features();
    q.out_padded = (q.out + QNR - 1) / QNR * QNR;
    if (i + 1 < net.layer_count() && net.layer(i + 1).kind() == "relu") {
      q.relu = true;
      ++i;
    }
    ++i;

    const Matrix& W = d.weights();
    q.bias.resize(q.out);
    for (std::size_t c = 0; c < q.out; ++c) {
      q.bias[c] = static_cast<float>(d.bias()(0, c));
    }
    const std::size_t panel_elems = q.in * q.out_padded;
    // Panel layout: jr-th panel holds columns [jr*QNR, (jr+1)*QNR) for all
    // k rows, row-major within the panel, zero-padded past `out`.
    auto panel_value = [&](std::size_t idx) -> double {
      const std::size_t panel = idx / (q.in * QNR);
      const std::size_t rem = idx % (q.in * QNR);
      const std::size_t krow = rem / QNR;
      const std::size_t col = panel * QNR + rem % QNR;
      return col < q.out ? W(krow, col) : 0.0;
    };
    switch (policy) {
      case QuantPolicy::Fp32: {
        q.wf.resize(panel_elems);
        for (std::size_t e = 0; e < panel_elems; ++e) {
          q.wf[e] = static_cast<float>(panel_value(e));
        }
        break;
      }
      case QuantPolicy::Fp16: {
        q.wh.resize(panel_elems);
        for (std::size_t e = 0; e < panel_elems; ++e) {
          q.wh[e] = fp16_encode(static_cast<float>(panel_value(e)));
        }
        break;
      }
      case QuantPolicy::Int8: {
        // Symmetric per-output-column scales preserve each neuron's dynamic
        // range independently (the standard weight-quantization granularity).
        q.scale.assign(q.out_padded, 1.0f);
        for (std::size_t c = 0; c < q.out; ++c) {
          double amax = 0.0;
          for (std::size_t krow = 0; krow < q.in; ++krow) {
            amax = std::max(amax, std::fabs(W(krow, c)));
          }
          q.scale[c] = amax > 0.0 ? static_cast<float>(amax / 127.0) : 1.0f;
        }
        q.wq.resize(panel_elems);
        for (std::size_t e = 0; e < panel_elems; ++e) {
          const std::size_t panel = e / (q.in * QNR);
          const std::size_t col = panel * QNR + e % QNR;
          const double s = q.scale[col];
          const double v = panel_value(e) / s;
          q.wq[e] = static_cast<std::int8_t>(
              std::clamp(std::lround(v), -127L, 127L));
        }
        break;
      }
      case QuantPolicy::None:
        break;  // unreachable (rejected above)
    }
    max_width_ = std::max({max_width_, q.in, q.out_padded});
    layers_.push_back(std::move(q));
  }
  if (layers_.empty()) {
    throw std::invalid_argument("QuantizedNetwork: empty network");
  }
}

std::size_t QuantizedNetwork::memory_bytes() const {
  std::size_t total = sizeof(*this);
  for (const auto& q : layers_) {
    total += q.wf.capacity() * sizeof(float) +
             q.wh.capacity() * sizeof(std::uint16_t) +
             q.wq.capacity() * sizeof(std::int8_t) +
             q.scale.capacity() * sizeof(float) +
             q.bias.capacity() * sizeof(float) + sizeof(QLayer);
  }
  return total;
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
  const std::size_t m_total = input.rows();
  const std::size_t out_cols = layers_.back().out;
  output.resize(m_total, out_cols);
  if (m_total == 0) return;
  VF_OBS_COUNT("nn.quant.infer_rows", m_total);
  row_batch = std::max<std::size_t>(1, row_batch);

  const std::size_t mb_cap = std::min(row_batch, m_total);
  scratch.act_a.resize(mb_cap * max_width_);
  scratch.act_b.resize(mb_cap * max_width_);

  // Decode the fp16/int8 weight panels to fp32 once per (scratch, network)
  // pairing — not once per row chunk. The cache is keyed on the network's
  // generation id, which survives in-place rebuilds (serve model eviction).
  if (policy_ != QuantPolicy::Fp32 &&
      scratch.wdec_generation != generation_) {
    scratch.wdec.resize(layers_.size());
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const QLayer& q = layers_[li];
      auto& dec = scratch.wdec[li];
      if (policy_ == QuantPolicy::Fp16) {
        dec.resize(q.wh.size());
        decode_fp16(q.wh.data(), q.wh.size(), dec.data());
      } else {
        dec.resize(q.wq.size());
        const std::size_t panel_stride = q.in * QNR;
        for (std::size_t e = 0; e < q.wq.size(); ++e) {
          const std::size_t col = e / panel_stride * QNR + e % QNR;
          dec[e] = static_cast<float>(q.wq[e]) * q.scale[col];
        }
      }
    }
    scratch.wdec_generation = generation_;
  }

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
      const float* wpanels = policy_ == QuantPolicy::Fp32
                                 ? q.wf.data()
                                 : scratch.wdec[li].data();
      sgemm_panels(mb, q.out, q.in, cur, wpanels, q.bias.data(), q.relu,
                   nxt);
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
