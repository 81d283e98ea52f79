// Base interface for neural-network layers.
//
// Every layer has two forwards over the same arithmetic. infer() is the
// inference forward: a const, reentrant pure function of the input and the
// parameters. It writes no member (scratch lives per call or per thread),
// so any number of threads may run it on one layer at once. forward() is
// the stateful training forward: it also caches whatever the backward pass
// needs, and forward(x, false) is bitwise equal to infer(x). Batches are
// 4-D [N, C, H, W] for spatial layers and 2-D [N, F] for fully connected
// ones. A layer can be flagged as a *probe*: infer() then appends its
// output, the hidden representation f_i(x) of that layer, to the caller's
// probe list for the Deep Validation framework.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace dv {

/// Non-owning handle to one trainable parameter and its gradient buffer.
struct param_ref {
  tensor* value{};
  tensor* grad{};
  std::string name;
};

class layer {
 public:
  virtual ~layer() = default;
  layer() = default;
  layer(const layer&) = delete;
  layer& operator=(const layer&) = delete;

  /// Stateful forward for training and gradient attacks: computes the
  /// layer output and caches what backward needs. `training` toggles
  /// train-time behaviour (dropout masks, batch-norm batch statistics).
  virtual tensor forward(const tensor& x, bool training) = 0;

  /// Inference forward with eval-time behaviour, bitwise equal to
  /// forward(x, false) but writing no member. When `probes` is non-null,
  /// appends this layer's probe outputs (several for composite layers) in
  /// network order.
  virtual tensor infer(const tensor& x, std::vector<tensor>* probes) const = 0;

  /// Propagates `grad_out` (gradient w.r.t. the last forward output) back,
  /// accumulating parameter gradients, and returns the gradient w.r.t. the
  /// last forward input. Must be called after forward on the same batch.
  virtual tensor backward(const tensor& grad_out) = 0;

  /// Trainable parameters; empty for stateless layers.
  virtual std::vector<param_ref> params() { return {}; }

  /// Persistent non-trainable buffers (e.g. batch-norm running statistics)
  /// that must be serialized alongside the parameters.
  virtual std::vector<tensor*> state() { return {}; }

  /// Short type name, e.g. "conv2d".
  virtual std::string name() const = 0;

  /// One-line human description used when printing architectures (Table II).
  virtual std::string describe() const { return name(); }

  /// Number of probe points this layer contributes to infer().
  virtual int probe_count() const { return probe_ ? 1 : 0; }

  bool is_probe() const { return probe_; }
  void set_probe(bool p) { probe_ = p; }

 protected:
  /// Appends `out` to `probes` when this layer is a probe and the caller
  /// collects probes.
  void record_probe(const tensor& out, std::vector<tensor>* probes) const {
    if (probe_ && probes != nullptr) probes->push_back(out);
  }

  bool probe_{false};
};

}  // namespace dv
