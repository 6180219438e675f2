#pragma once
// Sequential network container.
//
// Holds an ordered stack of layers, runs forward/backward through them, and
// exposes the helpers the reconstruction core needs: an MLP factory matching
// the paper's architecture, and trainability toggles implementing the two
// fine-tuning regimes of Fig 5.

#include <cstdint>
#include <memory>
#include <vector>

#include "vf/nn/activation.hpp"
#include "vf/nn/dense.hpp"
#include "vf/nn/layer.hpp"

namespace vf::nn {

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Build the paper-style MLP: dense(in->h1) relu dense(h1->h2) relu ...
  /// dense(h_last->out), i.e. ReLU after every hidden layer, linear output.
  static Network mlp(std::size_t inputs, const std::vector<std::size_t>& hidden,
                     std::size_t outputs, std::uint64_t seed);

  void add(std::unique_ptr<Layer> layer);

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_[i]; }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Forward pass for a whole batch.
  void forward(const Matrix& input, Matrix& output);

  /// Backward pass for the most recent forward() batch; accumulates
  /// parameter gradients in the layers. The gradient with respect to the
  /// network's input is not computed.
  void backward(const Matrix& grad_output);

  /// All parameter handles, in layer order.
  [[nodiscard]] std::vector<Param> params();

  void zero_grad();

  /// Number of scalar parameters.
  [[nodiscard]] std::size_t parameter_count() const;

  /// Mark every layer trainable / frozen (fine-tuning Case 1 uses all-true).
  void set_all_trainable(bool trainable);

  /// Fine-tuning Case 2: freeze everything except the last `n` dense
  /// layers. Activations carry no parameters and are unaffected.
  void set_trainable_last_dense(int n);

  /// Count of dense layers.
  [[nodiscard]] int dense_count() const;

  /// Deep copy (weights and trainability, not cached activations).
  [[nodiscard]] Network clone() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Ping-pong buffers reused across forward/backward calls.
  std::vector<Matrix> acts_;
  std::vector<Matrix> grads_;
};

}  // namespace vf::nn
