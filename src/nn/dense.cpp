#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/layers.h"
#include "tensor/ops.h"
#include "util/trace.h"

namespace dv {

dense::dense(std::int64_t in_f, std::int64_t out_f, rng& gen, bool bias)
    : in_f_{in_f}, out_f_{out_f}, has_bias_{bias} {
  if (in_f <= 0 || out_f <= 0) {
    throw std::invalid_argument{"dense: invalid dimensions"};
  }
  const float std = std::sqrt(2.0f / static_cast<float>(in_f));
  weight_ = tensor::randn({out_f, in_f}, gen, std);
  dweight_ = tensor::zeros({out_f, in_f});
  if (has_bias_) {
    bias_ = tensor::zeros({out_f});
    dbias_ = tensor::zeros({out_f});
  }
}

tensor dense::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.dense.forward"};
  if (x.dim() != 2 || x.extent(1) != in_f_) {
    throw std::invalid_argument{"dense::forward: expected [N," +
                                std::to_string(in_f_) + "], got " +
                                x.shape_string()};
  }
  const std::int64_t n = x.extent(0);
  tensor out{{n, out_f_}};
  // out[N, out_f] = x[N, in_f] * W[out_f, in_f]^T
  gemm_nt(n, out_f_, in_f_, 1.0f, x.data(), weight_.data(), 0.0f, out.data());
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      float* row = out.data() + i * out_f_;
      for (std::int64_t j = 0; j < out_f_; ++j) row[j] += bias_[j];
    }
  }
  record_probe(out, probes);
  return out;
}

tensor dense::forward(const tensor& x, bool /*training*/) {
  tensor out = infer(x, nullptr);
  input_ = x;
  return out;
}

tensor dense::backward(const tensor& grad_out) {
  trace_span span{"nn.dense.backward"};
  const std::int64_t n = input_.extent(0);
  if (grad_out.dim() != 2 || grad_out.extent(0) != n ||
      grad_out.extent(1) != out_f_) {
    throw std::invalid_argument{"dense::backward: grad shape mismatch"};
  }
  // dW[out_f, in_f] += dY[N, out_f]^T * X[N, in_f]
  gemm_tn(out_f_, in_f_, n, 1.0f, grad_out.data(), input_.data(), 1.0f,
          dweight_.data());
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* row = grad_out.data() + i * out_f_;
      for (std::int64_t j = 0; j < out_f_; ++j) dbias_[j] += row[j];
    }
  }
  // dX[N, in_f] = dY[N, out_f] * W[out_f, in_f]
  tensor grad_in{{n, in_f_}};
  gemm_nn(n, in_f_, out_f_, 1.0f, grad_out.data(), weight_.data(), 0.0f,
          grad_in.data());
  return grad_in;
}

std::vector<param_ref> dense::params() {
  std::vector<param_ref> out{{&weight_, &dweight_, "weight"}};
  if (has_bias_) out.push_back({&bias_, &dbias_, "bias"});
  return out;
}

std::string dense::describe() const {
  std::ostringstream out;
  out << "dense(" << in_f_ << " -> " << out_f_ << ")";
  return out.str();
}

}  // namespace dv
