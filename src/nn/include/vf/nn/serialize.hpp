#pragma once
// Binary network persistence ("VFNN" format).
//
// The temporal workflow (paper Experiment 2) stores pretrained models and
// reloads them for fine-tuning on later timesteps; Case 2 additionally
// stores only the last two dense layers per timestep. save_network /
// load_network handle the full model; save_dense_tail / load_dense_tail
// handle the partial Case-2 payload.
//
// Format version 2 is crash-safe: files are written atomically
// (write-temp -> fsync -> rename, see vf/util/atomic_io.hpp) and every
// variable-length section — one per layer — carries a CRC32, so a torn
// write or a bit flip is rejected at load with std::runtime_error instead
// of being silently deserialised. Loaders consume the file exactly:
// trailing bytes after the payload are an error. Version-1 files (no
// checksums) are still readable, with the same exact-size discipline.

#include <string>
#include <string_view>

#include "vf/nn/network.hpp"
#include "vf/nn/quant.hpp"

namespace vf::nn {

/// Serialize the full network (architecture + weights + trainability).
/// The write is atomic: on any failure `path` keeps its previous content.
void save_network(const Network& net, const std::string& path);

/// Load a network saved with save_network.
Network load_network(const std::string& path);

/// The v2 on-disk byte layout, in memory. The model and checkpoint formats
/// embed networks through these instead of touching the filesystem twice;
/// network_from_bytes parses a view of the container's buffer in place.
std::string network_to_bytes(const Network& net);
Network network_from_bytes(std::string_view bytes, const char* what);

/// Parse the same layout, with the same checks, straight into the packed
/// inference form: each dense layer is packed from its section of `bytes`
/// in place, so the weights are written once, never as a row-major copy
/// first. A network the packed form does not hold (any layer besides
/// dense and ReLU) throws std::invalid_argument, as QuantizedNetwork does.
QuantizedNetwork packed_network_from_bytes(std::string_view bytes,
                                           const char* what,
                                           QuantPolicy policy);

/// Save only the last `n` dense layers' weights (Case-2 per-timestep delta).
void save_dense_tail(const Network& net, int n, const std::string& path);

/// Overwrite the last `n` dense layers of `net` with weights from `path`.
/// Shapes must match; throws std::runtime_error otherwise.
void load_dense_tail(Network& net, int n, const std::string& path);

}  // namespace vf::nn
