#include "vf/nn/dense.hpp"

#include <cmath>
#include <utility>

#include "vf/nn/kernels.hpp"
#include "vf/util/contract.hpp"
#include "vf/util/rng.hpp"

namespace vf::nn {

DenseLayer::DenseLayer(std::size_t in, std::size_t out, std::uint64_t seed)
    : DenseLayer(in, out) {
  vf::util::Rng rng(seed, 0x64656e73);
  double stddev = std::sqrt(2.0 / static_cast<double>(in));
  for (auto& w : weights_.data()) w = rng.gaussian(0.0, stddev);
}

DenseLayer::DenseLayer(std::size_t in, std::size_t out)
    : DenseLayer(Matrix(in, out), Matrix(1, out)) {}

DenseLayer::DenseLayer(Matrix weights, Matrix bias)
    : weights_(std::move(weights)), bias_(std::move(bias)) {
  VF_REQUIRE(bias_.rows() == 1 && bias_.cols() == weights_.cols(),
             "DenseLayer: bias must be (1 x out_features)");
}

void DenseLayer::ensure_grads() {
  w_grad_.resize(weights_.rows(), weights_.cols());
  b_grad_.resize(bias_.rows(), bias_.cols());
}

void DenseLayer::forward(const Matrix& input, Matrix& output) {
  VF_REQUIRE(input.cols() == weights_.rows(),
             "DenseLayer::forward: input width != in_features");
  input_ = input;
  // Bias is fused into the GEMM tile write-back (no separate output pass);
  // the activation stays a distinct layer here because backward() needs the
  // pre-activation chain.
  fused_dense_forward(input, weights_, bias_, /*relu=*/false, output);
}

void DenseLayer::backward(const Matrix& grad_output, Matrix& grad_input) {
  backward_params(grad_output);
  // dx = dy . W^T — always needed so deeper (possibly trainable) layers
  // receive their gradients even when this layer is frozen.
  gemm_a_bt(grad_output, weights_, grad_input);
}

void DenseLayer::backward_params(const Matrix& grad_output) {
  VF_REQUIRE(grad_output.rows() == input_.rows() &&
                 grad_output.cols() == weights_.cols(),
             "DenseLayer::backward: grad shape != forward output shape");
  if (!trainable_) return;
  // dW = x^T . dy ; db = column sums of dy. Accumulate across the batch.
  ensure_grads();
  Matrix wg, bg;
  gemm_at_b(input_, grad_output, wg);
  sum_rows(grad_output, bg);
  axpy(1.0, wg, w_grad_);
  axpy(1.0, bg, b_grad_);
}

std::vector<Param> DenseLayer::params() {
  ensure_grads();
  return {{&weights_, &w_grad_, trainable_}, {&bias_, &b_grad_, trainable_}};
}

void DenseLayer::zero_grad() {
  w_grad_.fill(0.0);
  b_grad_.fill(0.0);
}

}  // namespace vf::nn
