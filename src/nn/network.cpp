#include "vf/nn/network.hpp"

#include <stdexcept>

namespace vf::nn {

Network Network::mlp(std::size_t inputs, const std::vector<std::size_t>& hidden,
                     std::size_t outputs, std::uint64_t seed) {
  Network net;
  std::size_t prev = inputs;
  std::uint64_t layer_seed = seed;
  for (std::size_t h : hidden) {
    net.add(std::make_unique<DenseLayer>(prev, h, layer_seed++));
    net.add(std::make_unique<ReluLayer>());
    prev = h;
  }
  net.add(std::make_unique<DenseLayer>(prev, outputs, layer_seed++));
  return net;
}

void Network::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
}

void Network::forward(const Matrix& input, Matrix& output) {
  if (layers_.empty()) {
    output = input;
    return;
  }
  acts_.resize(layers_.size());
  const Matrix* cur = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(*cur, acts_[i]);
    cur = &acts_[i];
  }
  output = acts_.back();
}

void Network::backward(const Matrix& grad_output) {
  if (layers_.empty()) return;
  grads_.resize(layers_.size());
  const Matrix* cur = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 1;) {
    layers_[i]->backward(*cur, grads_[i]);
    cur = &grads_[i];
  }
  // Nothing reads the gradient with respect to the network's input, so the
  // first layer skips it (for a dense layer, the dy . W^T GEMM).
  layers_[0]->backward_params(*cur);
}

std::vector<Param> Network::params() {
  std::vector<Param> out;
  for (auto& l : layers_) {
    auto ps = l->params();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

void Network::zero_grad() {
  for (auto& l : layers_) l->zero_grad();
}

std::size_t Network::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    if (l->kind() != "dense") continue;
    const auto& d = static_cast<const DenseLayer&>(*l);
    n += d.weights().size() + d.bias().size();
  }
  return n;
}

void Network::set_all_trainable(bool trainable) {
  for (auto& l : layers_) l->set_trainable(trainable);
}

int Network::dense_count() const {
  int n = 0;
  for (const auto& l : layers_) {
    if (l->kind() == "dense") ++n;
  }
  return n;
}

void Network::set_trainable_last_dense(int n) {
  int total = dense_count();
  int seen = 0;
  for (auto& l : layers_) {
    if (l->kind() != "dense") continue;
    ++seen;
    l->set_trainable(seen > total - n);
  }
}

Network Network::clone() const {
  Network copy;
  for (const auto& l : layers_) {
    if (l->kind() == "dense") {
      const auto& d = static_cast<const DenseLayer&>(*l);
      auto nd = std::make_unique<DenseLayer>(d.weights(), d.bias());
      nd->set_trainable(d.trainable());
      copy.add(std::move(nd));
    } else if (l->kind() == "relu") {
      copy.add(std::make_unique<ReluLayer>());
    } else if (l->kind() == "tanh") {
      copy.add(std::make_unique<TanhLayer>());
    } else if (l->kind() == "leaky_relu") {
      const auto& lr = static_cast<const LeakyReluLayer&>(*l);
      copy.add(std::make_unique<LeakyReluLayer>(lr.slope()));
    } else {
      throw std::logic_error("Network::clone: unknown layer kind " + l->kind());
    }
  }
  return copy;
}

}  // namespace vf::nn
