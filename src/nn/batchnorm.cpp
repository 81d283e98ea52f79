#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/layers.h"
#include "util/trace.h"

namespace dv {

batch_norm::batch_norm(std::int64_t channels, double momentum, double eps)
    : channels_{channels}, momentum_{momentum}, eps_{eps} {
  if (channels <= 0) throw std::invalid_argument{"batch_norm: channels"};
  gamma_ = tensor::full({channels}, 1.0f);
  beta_ = tensor::zeros({channels});
  dgamma_ = tensor::zeros({channels});
  dbeta_ = tensor::zeros({channels});
  running_mean_ = tensor::zeros({channels});
  running_var_ = tensor::full({channels}, 1.0f);
}

namespace {

/// y = gamma * x_hat + beta with x_hat = (x - mean) * inv_std per channel,
/// x_hat rounded to float first. Keeps x_hat in `x_hat` when non-null
/// (the training forward's backward cache; every element is rewritten, so
/// a same-shape buffer is reused).
tensor apply_batch_norm(const tensor& x, const tensor& gamma,
                        const tensor& beta, const std::vector<float>& mean,
                        const std::vector<float>& inv_std, tensor* x_hat) {
  const std::int64_t n = x.extent(0), channels = x.extent(1);
  const std::int64_t plane = x.dim() == 4 ? x.extent(2) * x.extent(3) : 1;
  tensor out{x.shape()};
  if (x_hat != nullptr && !x_hat->same_shape(x)) *x_hat = tensor{x.shape()};
  for (std::int64_t c = 0; c < channels; ++c) {
    const float g = gamma[c], b = beta[c];
    const float fm = mean[static_cast<std::size_t>(c)];
    const float fs = inv_std[static_cast<std::size_t>(c)];
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t base = (i * channels + c) * plane;
      const float* p = x.data() + base;
      float* o = out.data() + base;
      float* xh = x_hat != nullptr ? x_hat->data() + base : nullptr;
      for (std::int64_t j = 0; j < plane; ++j) {
        const float h = (p[j] - fm) * fs;
        if (xh != nullptr) xh[j] = h;
        o[j] = g * h + b;
      }
    }
  }
  return out;
}

}  // namespace

void batch_norm::check_input(const tensor& x) const {
  if (x.dim() != 4 && x.dim() != 2) {
    throw std::invalid_argument{"batch_norm: expected 2-D or 4-D input"};
  }
  if (x.extent(1) != channels_) {
    throw std::invalid_argument{"batch_norm: channel mismatch"};
  }
}

void batch_norm::running_stats(std::vector<float>& mean,
                               std::vector<float>& inv_std) const {
  mean.resize(static_cast<std::size_t>(channels_));
  inv_std.resize(static_cast<std::size_t>(channels_));
  for (std::int64_t c = 0; c < channels_; ++c) {
    const double var = running_var_[c];
    mean[static_cast<std::size_t>(c)] = running_mean_[c];
    inv_std[static_cast<std::size_t>(c)] =
        static_cast<float>(1.0 / std::sqrt(var + eps_));
  }
}

tensor batch_norm::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.batch_norm.forward"};
  check_input(x);
  std::vector<float> mean, inv_std;
  running_stats(mean, inv_std);
  tensor out = apply_batch_norm(x, gamma_, beta_, mean, inv_std, nullptr);
  record_probe(out, probes);
  return out;
}

tensor batch_norm::forward(const tensor& x, bool training) {
  trace_span span{"nn.batch_norm.forward"};
  check_input(x);
  input_shape_ = x.shape();
  last_training_ = training;
  if (!training) {
    running_stats(batch_mean_, batch_inv_std_);
    return apply_batch_norm(x, gamma_, beta_, batch_mean_, batch_inv_std_,
                            &x_hat_);
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t plane = x.dim() == 4 ? x.extent(2) * x.extent(3) : 1;
  const std::int64_t m = n * plane;  // elements per channel
  batch_mean_.assign(static_cast<std::size_t>(channels_), 0.0f);
  batch_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0f);
  for (std::int64_t c = 0; c < channels_; ++c) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* p = x.data() + (i * channels_ + c) * plane;
      for (std::int64_t j = 0; j < plane; ++j) acc += p[j];
    }
    const double mean = acc / static_cast<double>(m);
    double vacc = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* p = x.data() + (i * channels_ + c) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        const double d = p[j] - mean;
        vacc += d * d;
      }
    }
    const double var = vacc / static_cast<double>(m);
    running_mean_[c] = static_cast<float>(momentum_ * running_mean_[c] +
                                          (1.0 - momentum_) * mean);
    running_var_[c] = static_cast<float>(momentum_ * running_var_[c] +
                                         (1.0 - momentum_) * var);
    batch_mean_[static_cast<std::size_t>(c)] = static_cast<float>(mean);
    batch_inv_std_[static_cast<std::size_t>(c)] =
        static_cast<float>(1.0 / std::sqrt(var + eps_));
  }
  return apply_batch_norm(x, gamma_, beta_, batch_mean_, batch_inv_std_,
                          &x_hat_);
}

tensor batch_norm::backward(const tensor& grad_out) {
  if (grad_out.shape() != input_shape_) {
    throw std::invalid_argument{"batch_norm::backward: shape mismatch"};
  }
  const bool spatial = input_shape_.size() == 4;
  const std::int64_t n = input_shape_[0];
  const std::int64_t plane = spatial ? input_shape_[2] * input_shape_[3] : 1;
  const std::int64_t m = n * plane;
  tensor grad_in{input_shape_};

  for (std::int64_t c = 0; c < channels_; ++c) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dy = grad_out.data() + (i * channels_ + c) * plane;
      const float* xh = x_hat_.data() + (i * channels_ + c) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        sum_dy += dy[j];
        sum_dy_xhat += static_cast<double>(dy[j]) * xh[j];
      }
    }
    dgamma_[c] += static_cast<float>(sum_dy_xhat);
    dbeta_[c] += static_cast<float>(sum_dy);

    const float inv_std = batch_inv_std_[static_cast<std::size_t>(c)];
    const float g = gamma_[c];
    if (last_training_) {
      const float k = g * inv_std / static_cast<float>(m);
      const float fsum_dy = static_cast<float>(sum_dy);
      const float fsum_dy_xhat = static_cast<float>(sum_dy_xhat);
      for (std::int64_t i = 0; i < n; ++i) {
        const float* dy = grad_out.data() + (i * channels_ + c) * plane;
        const float* xh = x_hat_.data() + (i * channels_ + c) * plane;
        float* dx = grad_in.data() + (i * channels_ + c) * plane;
        for (std::int64_t j = 0; j < plane; ++j) {
          dx[j] = k * (static_cast<float>(m) * dy[j] - fsum_dy -
                       xh[j] * fsum_dy_xhat);
        }
      }
    } else {
      // At inference statistics are constants, so the Jacobian is diagonal.
      const float k = g * inv_std;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* dy = grad_out.data() + (i * channels_ + c) * plane;
        float* dx = grad_in.data() + (i * channels_ + c) * plane;
        for (std::int64_t j = 0; j < plane; ++j) dx[j] = k * dy[j];
      }
    }
  }
  return grad_in;
}

std::vector<param_ref> batch_norm::params() {
  return {{&gamma_, &dgamma_, "gamma"}, {&beta_, &dbeta_, "beta"}};
}

std::string batch_norm::describe() const {
  std::ostringstream out;
  out << "batch_norm(" << channels_ << ")";
  return out.str();
}

}  // namespace dv
