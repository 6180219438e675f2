#pragma once
// Options struct for the reconstruction entry points.
//
// Everything tunable about FCNN reconstruction lives in one named-field
// struct, consumed alike by the grid engine (FcnnReconstructor), the
// resilient path and the vf::api facade.

#include <cstddef>

#include "vf/nn/quant.hpp"
#include "vf/spatial/neighbor_index.hpp"

namespace vf::core {

struct ReconstructOptions {
  /// Grid points per inference tile (FcnnReconstructor): per-thread
  /// scratch memory is O(tile_size), independent of the grid. 2048 rows
  /// keep the widest activation buffer (2048 x 512 doubles = 8 MB) within
  /// reach of the outer cache levels while amortising per-tile setup; the
  /// BM_BatchReconstruct sweep in bench/micro_kernels picked it over
  /// 1024/4096/8192.
  std::size_t tile_size = 2048;

  /// Inference precision: the engine packs the model's weights once, at
  /// construction, at this policy (see vf/nn/quant.hpp). None packs fp64
  /// panels, bit-identical to the training forward on finite inputs;
  /// Fp32 / Fp16 / Int8 pack fp32 panels for the same micro-kernel's float
  /// instance. Guarded by the SNR-regression suite.
  vf::nn::QuantPolicy quant = vf::nn::QuantPolicy::None;

  /// Neighbour index selection. Auto picks grid-hash for dense grid-sweep
  /// query workloads and the exact k-d tree for sparse probing (see
  /// vf/spatial/neighbor_index.hpp for the policy).
  vf::spatial::IndexKind index = vf::spatial::IndexKind::Auto;
};

}  // namespace vf::core
