// DenseNet building blocks (Huang et al., CVPR 2017).
//
// A dense block chains `units` composite BN -> ReLU -> Conv3x3 units; the
// output of every unit is concatenated onto the running channel stack, so
// unit u sees all feature maps produced before it. A transition layer
// (BN -> ReLU -> Conv1x1 -> AvgPool2) compresses channels and halves the
// spatial resolution between blocks.
//
// Each unit can be flagged as a probe point: infer() then reports the
// unit's newly produced feature maps y_u = f_u(s_{u-1}), i.e. "the output
// of layer u" in the paper's sense.
//
// forward() runs each composite as its layer chain (batch_norm, relu,
// conv2d, concat_channels), which backward and the attacks need. infer()
// runs one fused path with the same bits (DESIGN.md §8): per sample, a
// composite stages relu(bn(x)) once into a per-thread buffer with the
// conv's zero border, and conv_direct (tensor/ops.h) convolves it straight
// into the output. A dense block allocates its [N, C_total, H, W] output
// once and each unit writes its growth channels in place.
#pragma once

#include <memory>

#include "nn/layers.h"

namespace dv {

/// One BN-ReLU-Conv3x3 unit of a dense block.
class dense_unit {
 public:
  dense_unit(std::int64_t in_c, std::int64_t growth, rng& gen);

  tensor forward(const tensor& x, bool training);
  /// Returns gradient w.r.t. the unit input.
  tensor backward(const tensor& grad_out);
  std::vector<param_ref> params();
  std::vector<tensor*> state();

  std::int64_t growth() const { return growth_; }
  const batch_norm& bn() const { return bn_; }
  const conv2d& conv() const { return conv_; }

 private:
  std::int64_t growth_;
  batch_norm bn_;
  relu act_;
  conv2d conv_;
};

/// Dense block: `units` dense_units with concatenative connectivity.
class dense_block : public layer {
 public:
  dense_block(std::int64_t in_c, std::int64_t growth, int units, rng& gen);

  tensor forward(const tensor& x, bool training) override;
  /// Probes, in order: each probed unit's new feature maps, then the
  /// block output when the block itself is a probe.
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::vector<param_ref> params() override;
  std::vector<tensor*> state() override;
  std::string name() const override { return "dense_block"; }
  std::string describe() const override;

  int probe_count() const override;

  /// Marks the last `n` units (or all if n < 0) as probe points.
  void set_unit_probes(int n);

  std::int64_t out_channels() const {
    return in_c_ + growth_ * static_cast<std::int64_t>(units_.size());
  }

 private:
  void check_input(const tensor& x) const;

  std::int64_t in_c_, growth_;
  std::vector<std::unique_ptr<dense_unit>> units_;
  std::vector<bool> unit_probe_;
};

/// Transition layer: BN -> ReLU -> Conv1x1 (compression) -> AvgPool2.
class transition : public layer {
 public:
  transition(std::int64_t in_c, std::int64_t out_c, rng& gen);

  tensor forward(const tensor& x, bool training) override;
  tensor infer(const tensor& x, std::vector<tensor>* probes) const override;
  tensor backward(const tensor& grad_out) override;
  std::vector<param_ref> params() override;
  std::vector<tensor*> state() override;
  std::string name() const override { return "transition"; }
  std::string describe() const override;

  std::int64_t out_channels() const { return out_c_; }

 private:
  std::int64_t out_c_;
  batch_norm bn_;
  relu act_;
  conv2d conv_;
  avg_pool2d pool_;
};

/// Concatenates two 4-D tensors along the channel axis.
tensor concat_channels(const tensor& a, const tensor& b);

/// Splits a 4-D tensor along channels into [0, c_first) and [c_first, C).
void split_channels(const tensor& x, std::int64_t c_first, tensor& first,
                    tensor& second);

}  // namespace dv
