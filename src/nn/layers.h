// Concrete layer types of the neural-network substrate.
#pragma once

#include <cstdint>

#include "nn/layer.h"
#include "util/rng.h"

namespace dv {

// -- Activation / shape layers -------------------------------------------------

/// Rectified linear unit, elementwise max(0, x).
class relu : public layer {
 public:
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "relu"; }

 private:
  tensor mask_;  // 1 where input > 0
};

/// Leaky ReLU: x for x > 0, slope * x otherwise.
class leaky_relu : public layer {
 public:
  explicit leaky_relu(float slope = 0.01f);
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "leaky_relu"; }
  std::string describe() const override;

 private:
  float slope_;
  tensor grad_mask_;  // 1 or slope per element
};

/// Elementwise logistic sigmoid.
class sigmoid : public layer {
 public:
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "sigmoid"; }

 private:
  tensor output_;
};

/// Elementwise hyperbolic tangent.
class tanh_layer : public layer {
 public:
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "tanh"; }

 private:
  tensor output_;
};

/// Inverted dropout: scales kept units by 1/(1-p) at train time, identity at
/// inference time.
class dropout : public layer {
 public:
  dropout(double p, std::uint64_t seed);
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "dropout"; }
  std::string describe() const override;

 private:
  double p_;
  rng gen_;
  tensor mask_;
  bool last_training_{false};
};

/// Flattens [N, C, H, W] to [N, C*H*W].
class flatten : public layer {
 public:
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "flatten"; }

 private:
  std::vector<std::int64_t> input_shape_;
};

// -- Convolution -----------------------------------------------------------------

/// 2-D convolution with square kernels, implemented as im2col + GEMM.
/// Weight layout: [out_c, in_c * k * k]; bias: [out_c].
class conv2d : public layer {
 public:
  /// He-normal weight initialization from `gen`.
  conv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, rng& gen, bool bias = true);

  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::vector<param_ref> params() override;
  std::string name() const override { return "conv2d"; }
  std::string describe() const override;

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  const tensor& weight() const { return weight_; }

 private:
  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  tensor weight_, bias_, dweight_, dbias_;
  tensor input_;  // cached forward input
};

// -- Fully connected -----------------------------------------------------------

/// Affine layer y = x W^T + b on 2-D inputs [N, in_f].
/// Weight layout: [out_f, in_f]; bias: [out_f].
class dense : public layer {
 public:
  dense(std::int64_t in_f, std::int64_t out_f, rng& gen, bool bias = true);

  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::vector<param_ref> params() override;
  std::string name() const override { return "dense"; }
  std::string describe() const override;

  std::int64_t in_features() const { return in_f_; }
  std::int64_t out_features() const { return out_f_; }

 private:
  std::int64_t in_f_, out_f_;
  bool has_bias_;
  tensor weight_, bias_, dweight_, dbias_;
  tensor input_;
};

// -- Pooling ------------------------------------------------------------------

/// Max pooling with a square window; window == stride (non-overlapping).
class max_pool2d : public layer {
 public:
  explicit max_pool2d(std::int64_t window);
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "max_pool2d"; }
  std::string describe() const override;

 private:
  std::int64_t window_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
  std::vector<std::int64_t> input_shape_;
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class global_avg_pool : public layer {
 public:
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "global_avg_pool"; }

 private:
  std::vector<std::int64_t> input_shape_;
};

/// Spatial average pooling with a square window; window == stride.
class avg_pool2d : public layer {
 public:
  explicit avg_pool2d(std::int64_t window);
  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::string name() const override { return "avg_pool2d"; }
  std::string describe() const override;

 private:
  std::int64_t window_;
  std::vector<std::int64_t> input_shape_;
};

// -- Batch normalization ---------------------------------------------------------

/// Per-channel batch normalization over [N, C, H, W] (spatial) or per-feature
/// over [N, F]. Tracks running statistics for inference.
class batch_norm : public layer {
 public:
  explicit batch_norm(std::int64_t channels, double momentum = 0.9,
                      double eps = 1e-5);

  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::vector<param_ref> params() override;
  std::vector<tensor*> state() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override { return "batch_norm"; }
  std::string describe() const override;

  /// Running statistics participate in serialization as extra state.
  tensor& running_mean() { return running_mean_; }
  tensor& running_var() { return running_var_; }
  const tensor& gamma() const { return gamma_; }
  const tensor& beta() const { return beta_; }
  /// Per-channel mean and 1/sqrt(var + eps) from the running statistics:
  /// infer() maps x to gamma * h + beta with h = (x - mean) * inv_std
  /// rounded to float first.
  void running_stats(std::vector<float>& mean,
                     std::vector<float>& inv_std) const;

 private:
  void check_input(const tensor& x) const;

  std::int64_t channels_;
  double momentum_, eps_;
  tensor gamma_, beta_, dgamma_, dbeta_;
  tensor running_mean_, running_var_;
  // Forward caches for backward.
  tensor x_hat_;
  std::vector<float> batch_mean_, batch_inv_std_;
  std::vector<std::int64_t> input_shape_;
  bool last_training_{false};
};

}  // namespace dv
