#pragma once
// Layer abstraction for the sequential MLP.
//
// A layer maps a (batch x in) matrix to (batch x out) in forward(), and in
// backward() consumes dLoss/dOutput, accumulates its parameter gradients,
// and returns dLoss/dInput; backward_params() does only the accumulation,
// for the network's first layer, whose dLoss/dInput nothing reads. Layers
// expose their parameters as Param handles so the optimizer and the
// serializer stay layer-agnostic.
//
// `trainable` implements the paper's fine-tuning Case 2 (§III, Fig 5):
// freezing all but the last two layers. Frozen layers still propagate input
// gradients (deeper layers may be trainable) but skip parameter-gradient
// accumulation and are skipped by the optimizer.

#include <memory>
#include <string>
#include <vector>

#include "vf/nn/matrix.hpp"

namespace vf::nn {

/// A view of one trainable tensor: value + gradient accumulator.
struct Param {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
  bool trainable = true;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Layer type tag used by the serializer ("dense", "relu", ...).
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Forward pass; must cache whatever backward needs.
  virtual void forward(const Matrix& input, Matrix& output) = 0;

  /// Backward pass for the most recent forward() batch.
  virtual void backward(const Matrix& grad_output, Matrix& grad_input) = 0;

  /// The parameter-gradient half of backward() alone (no-op for layers
  /// without parameters).
  virtual void backward_params(const Matrix& /*grad_output*/) {}

  /// Parameter handles (empty for activations).
  virtual std::vector<Param> params() { return {}; }

  /// Reset accumulated parameter gradients to zero.
  virtual void zero_grad() {}

  [[nodiscard]] bool trainable() const { return trainable_; }
  void set_trainable(bool t) { trainable_ = t; }

  /// Output width given an input width (for shape validation / summaries).
  [[nodiscard]] virtual std::size_t output_size(std::size_t input) const {
    return input;
  }

 protected:
  bool trainable_ = true;
};

}  // namespace vf::nn
