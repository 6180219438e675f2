#pragma once
// The trained reconstruction model: network + normalisation + metadata.
//
// An FcnnModel is what the in-situ workflow persists between timesteps
// (paper Experiment 2): the MLP weights plus the feature/target z-score
// constants fitted at pretraining time (applied identically forever after —
// fine-tuning updates weights only, keeping the model input/output space
// fixed). A PackedModel is its inference form: the weights packed once for
// the micro-kernel, which is what the grid engine and the serve tier hold.

#include <cstdint>
#include <string>

#include "vf/core/features.hpp"
#include "vf/nn/network.hpp"
#include "vf/nn/quant.hpp"

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
  /// Packs the weights at QuantPolicy::None once per call and streams the
  /// rows through in `batch`-row chunks; throws std::invalid_argument when
  /// the network is not a dense/ReLU stack.
  vf::nn::Matrix predict(const vf::nn::Matrix& features,
                         std::size_t batch = 8192);

  /// Deep copy (Network is move-only, so copying must be explicit).
  [[nodiscard]] FcnnModel clone() const;

  /// Resident size in bytes of a loaded model: weights, normaliser
  /// constants and metadata strings. Dense layers size their gradient
  /// buffers only when first trained, so a model restored by load() and
  /// never trained holds exactly this much.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Persist / restore the full model (network + normalisers + metadata).
  void save(const std::string& path) const;
  static FcnnModel load(const std::string& path);
};

/// A model in its inference form: the network packed once at a precision
/// policy (vf::nn::QuantizedNetwork; None answers bit for bit as the
/// training forward does on finite inputs) plus the normalisers and output
/// layout that predict_points needs. It holds the only copy of the weights
/// its owner keeps. Never mutated after construction, so every thread may
/// read one instance at once.
struct PackedModel {
  PackedModel() = default;
  PackedModel(const FcnnModel& model, vf::nn::QuantPolicy policy);

  vf::nn::QuantizedNetwork net;
  Normalizer in_norm;
  Normalizer out_norm;
  /// True when the output layer includes the three gradient components.
  bool with_gradients = true;

  /// Resident size in bytes: the packed weights and biases, the
  /// normaliser constants and this object, counted as
  /// FcnnModel::memory_bytes counts a row-major model. The serve-layer
  /// ModelRegistry charges it against its byte budget.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Load a model file (FcnnModel::save) straight into its packed form:
  /// the same parser and checks as FcnnModel::load, but each dense layer
  /// is packed from the file's bytes, never copied row-major first.
  static PackedModel load(const std::string& path,
                          vf::nn::QuantPolicy policy);
};

}  // namespace vf::core
