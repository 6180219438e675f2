#pragma once
// Per-shard configuration and counters of the serving tier. Every shard of
// a ShardRouter (vf/serve/router.hpp) is built from one ServiceOptions
// (RouterOptions::shard) and reports one ServiceStats (RouterStats::shards,
// summed into RouterStats::total, which the wire `stats` verb encodes).

#include <chrono>
#include <cstdint>
#include <stdexcept>

#include "vf/nn/quant.hpp"
#include "vf/serve/registry.hpp"
#include "vf/spatial/neighbor_index.hpp"

namespace vf::serve {

/// Thrown by the synchronous ShardRouter::query() when admission control
/// sheds the request. submit() reports the same condition as std::nullopt
/// so closed-loop clients can back off without exception overhead.
struct OverloadedError : std::runtime_error {
  OverloadedError() : std::runtime_error("vf::serve: queue full, request shed") {}
};

struct ServiceOptions {
  /// Worker threads serving micro-batches.
  std::size_t workers = 2;
  /// Most query points one micro-batch claims (a single larger request is
  /// taken whole). A worker never waits to fill a batch: it takes what
  /// queued while it was busy.
  std::size_t batch_max_points = 512;
  /// Bounded backlog: pending requests beyond this are shed.
  std::size_t queue_max = 256;
  /// Default per-request deadline applied by ShardRouter::submit()/query()
  /// when the caller passes none (zero = requests never expire).
  std::chrono::milliseconds default_deadline{0};
  /// Inference precision for served batches. The registry packs each
  /// model it loads at this policy, once per load: None packs fp64
  /// panels, bit-identical to the training forward on finite inputs;
  /// Fp32/Fp16/Int8 pack fp32 panels for the same micro-kernel's float
  /// instance. Every worker reads the entry's one packed copy. Guarded by
  /// the SNR-regression suite.
  vf::nn::QuantPolicy quant = vf::nn::QuantPolicy::None;
  /// Session index kind. Auto resolves against batch_max_points — serve
  /// micro-batches are sparse probes, so Auto keeps the exact k-d tree
  /// for typical session sizes.
  vf::spatial::IndexKind index = vf::spatial::IndexKind::Auto;
  RegistryOptions registry;
};

/// Monotonic per-shard counters. A shard counts each submit it sees as
/// accepted, shed or drain_rejects; every accepted request gets exactly one
/// terminal answer (served, expired, drain-shed or failed).
struct ServiceStats {
  std::uint64_t accepted = 0;  ///< submits handed a future
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t served_points = 0;
  std::uint64_t degraded_points = 0;
  std::uint64_t fallback_batches = 0;  ///< batches served classically
  std::uint64_t expired = 0;  ///< requests answered DeadlineExceeded
  std::uint64_t drain_rejects = 0;  ///< submits refused while draining
  RegistryStats registry;
};

}  // namespace vf::serve
