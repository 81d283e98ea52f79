#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/layers.h"
#include "tensor/ops.h"
#include "util/trace.h"

namespace dv {

tensor relu::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.relu.forward"};
  tensor out{x.shape()};
  // Branch-free: a compare-and-branch per element mispredicts on
  // activations of mixed sign.
  relu_array(x.data(), x.numel(), out.data());
  record_probe(out, probes);
  return out;
}

tensor relu::forward(const tensor& x, bool /*training*/) {
  tensor out = infer(x, nullptr);
  // The output is positive exactly where the input is. Every element is
  // rewritten, so a same-shape mask from the last batch is reused.
  if (!mask_.same_shape(x)) mask_ = tensor{x.shape()};
  float* m = mask_.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    m[i] = out[i] > 0.0f ? 1.0f : 0.0f;
  }
  return out;
}

tensor relu::backward(const tensor& grad_out) {
  if (!grad_out.same_shape(mask_)) {
    throw std::invalid_argument{"relu::backward: shape mismatch"};
  }
  tensor grad_in = grad_out;
  grad_in.mul_elem(mask_);
  return grad_in;
}

dropout::dropout(double p, std::uint64_t seed) : p_{p}, gen_{seed} {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument{"dropout: p must be in [0, 1)"};
  }
}

tensor dropout::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.dropout.forward"};
  record_probe(x, probes);
  return x;
}

tensor dropout::forward(const tensor& x, bool training) {
  last_training_ = training;
  if (!training || p_ == 0.0) return infer(x, nullptr);
  mask_ = tensor{x.shape()};
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  float* m = mask_.data();
  for (std::int64_t i = 0; i < mask_.numel(); ++i) {
    m[i] = gen_.bernoulli(p_) ? 0.0f : keep_scale;
  }
  tensor out = x;
  out.mul_elem(mask_);
  return out;
}

tensor dropout::backward(const tensor& grad_out) {
  if (!last_training_ || p_ == 0.0) return grad_out;
  tensor grad_in = grad_out;
  grad_in.mul_elem(mask_);
  return grad_in;
}

std::string dropout::describe() const {
  std::ostringstream out;
  out << "dropout(p=" << p_ << ")";
  return out.str();
}

tensor flatten::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.flatten.forward"};
  tensor out = x.reshaped({x.extent(0), x.numel() / x.extent(0)});
  record_probe(out, probes);
  return out;
}

tensor flatten::forward(const tensor& x, bool /*training*/) {
  input_shape_ = x.shape();
  return infer(x, nullptr);
}

tensor flatten::backward(const tensor& grad_out) {
  return grad_out.reshaped(input_shape_);
}

}  // namespace dv

namespace dv {

leaky_relu::leaky_relu(float slope) : slope_{slope} {
  if (slope < 0.0f || slope >= 1.0f) {
    throw std::invalid_argument{"leaky_relu: slope must be in [0, 1)"};
  }
}

tensor leaky_relu::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.leaky_relu.forward"};
  tensor out{x.shape()};
  const float* in = x.data();
  float* o = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    o[i] = in[i] > 0.0f ? in[i] : in[i] * slope_;
  }
  record_probe(out, probes);
  return out;
}

tensor leaky_relu::forward(const tensor& x, bool /*training*/) {
  if (!grad_mask_.same_shape(x)) grad_mask_ = tensor{x.shape()};
  float* m = grad_mask_.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    m[i] = x[i] > 0.0f ? 1.0f : slope_;
  }
  return infer(x, nullptr);
}

tensor leaky_relu::backward(const tensor& grad_out) {
  if (!grad_out.same_shape(grad_mask_)) {
    throw std::invalid_argument{"leaky_relu::backward: shape mismatch"};
  }
  tensor grad_in = grad_out;
  grad_in.mul_elem(grad_mask_);
  return grad_in;
}

std::string leaky_relu::describe() const {
  std::ostringstream out;
  out << "leaky_relu(slope=" << slope_ << ")";
  return out.str();
}

tensor sigmoid::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.sigmoid.forward"};
  tensor out{x.shape()};
  const float* in = x.data();
  float* o = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    o[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
  record_probe(out, probes);
  return out;
}

tensor sigmoid::forward(const tensor& x, bool /*training*/) {
  output_ = infer(x, nullptr);
  return output_;
}

tensor sigmoid::backward(const tensor& grad_out) {
  if (!grad_out.same_shape(output_)) {
    throw std::invalid_argument{"sigmoid::backward: shape mismatch"};
  }
  tensor grad_in = grad_out;
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) {
    const float y = output_[i];
    grad_in[i] *= y * (1.0f - y);
  }
  return grad_in;
}

tensor tanh_layer::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.tanh.forward"};
  tensor out{x.shape()};
  const float* in = x.data();
  float* o = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) o[i] = std::tanh(in[i]);
  record_probe(out, probes);
  return out;
}

tensor tanh_layer::forward(const tensor& x, bool /*training*/) {
  output_ = infer(x, nullptr);
  return output_;
}

tensor tanh_layer::backward(const tensor& grad_out) {
  if (!grad_out.same_shape(output_)) {
    throw std::invalid_argument{"tanh_layer::backward: shape mismatch"};
  }
  tensor grad_in = grad_out;
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) {
    const float y = output_[i];
    grad_in[i] *= 1.0f - y * y;
  }
  return grad_in;
}

}  // namespace dv
