#pragma once
// The trained reconstruction model: network + normalisation + metadata.
//
// An FcnnModel is what the in-situ workflow persists between timesteps
// (paper Experiment 2): the MLP weights plus the feature/target z-score
// constants fitted at pretraining time (applied identically forever after —
// fine-tuning updates weights only, keeping the model input/output space
// fixed).

#include <cstdint>
#include <string>

#include "vf/core/features.hpp"
#include "vf/nn/network.hpp"

namespace vf::core {

struct FcnnModel {
  vf::nn::Network net;
  Normalizer in_norm;
  Normalizer out_norm;
  /// True when the output layer includes the three gradient components.
  bool with_gradients = true;
  /// Provenance (dataset name, pretraining timestep) for logs.
  std::string dataset;
  double trained_timestep = 0.0;

  /// Predict de-normalised targets for raw (un-normalised) features.
  /// Returns an (n x 4) or (n x 1) matrix depending on with_gradients.
  vf::nn::Matrix predict(const vf::nn::Matrix& features,
                         std::size_t batch = 8192);

  /// Deep copy (Network is move-only, so copying must be explicit).
  [[nodiscard]] FcnnModel clone() const;

  /// Resident size in bytes of a loaded model: weights, normaliser
  /// constants and metadata strings. Dense layers size their gradient
  /// buffers only when first trained, so a model restored by load() and
  /// only served holds exactly this much. The serve-layer ModelRegistry
  /// charges it against its byte budget when deciding LRU evictions.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Persist / restore the full model (network + normalisers + metadata).
  void save(const std::string& path) const;
  static FcnnModel load(const std::string& path);
};

}  // namespace vf::core
