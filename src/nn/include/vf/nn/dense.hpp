#pragma once
// Fully connected (dense) layer: y = x W + b.

#include <cstdint>

#include "vf/nn/layer.hpp"

namespace vf::nn {

class DenseLayer final : public Layer {
 public:
  /// He-normal weight initialisation (suits the ReLU stack the paper uses);
  /// biases start at zero. `seed` makes initialisation reproducible.
  DenseLayer(std::size_t in, std::size_t out, std::uint64_t seed);

  /// Zero weights and biases.
  DenseLayer(std::size_t in, std::size_t out);

  /// Take ownership of parsed or copied parameters: `weights` is
  /// (in x out), `bias` is (1 x out). Gradient buffers stay empty until the
  /// layer is first trained (params() or backward()), so a layer that only
  /// serves inference holds its weights and nothing else.
  DenseLayer(Matrix weights, Matrix bias);

  [[nodiscard]] std::string kind() const override { return "dense"; }
  void forward(const Matrix& input, Matrix& output) override;
  void backward(const Matrix& grad_output, Matrix& grad_input) override;
  void backward_params(const Matrix& grad_output) override;
  std::vector<Param> params() override;
  void zero_grad() override;
  [[nodiscard]] std::size_t output_size(std::size_t) const override {
    return weights_.cols();
  }

  [[nodiscard]] std::size_t in_features() const { return weights_.rows(); }
  [[nodiscard]] std::size_t out_features() const { return weights_.cols(); }

  [[nodiscard]] Matrix& weights() { return weights_; }
  [[nodiscard]] const Matrix& weights() const { return weights_; }
  [[nodiscard]] Matrix& bias() { return bias_; }
  [[nodiscard]] const Matrix& bias() const { return bias_; }

 private:
  /// Size the gradient accumulators to the parameters (zero-filled) the
  /// first time training touches them; no-op afterwards.
  void ensure_grads();

  Matrix weights_;   // (in x out)
  Matrix bias_;      // (1 x out)
  Matrix w_grad_;    // empty until ensure_grads()
  Matrix b_grad_;
  Matrix input_;     // cached forward input
};

}  // namespace vf::nn
