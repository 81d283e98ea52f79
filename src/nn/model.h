// Sequential CNN model with Deep Validation probes.
//
// The model matches the paper's formulation f(x) = f_L(...f_1(x)): a stack
// of layers ending in a logits layer. Softmax is applied outside the stack
// (by `probabilities` / the loss), matching the convention that layer L is
// the softmax output layer and layers 1..L-1 are hidden layers whose outputs
// are validated.
//
// Inference runs through infer(): a const, reentrant pass that cuts the
// batch into fixed-size row slices and runs the whole network on each
// slice concurrently (DESIGN.md §8). forward()/backward() are the stateful
// training path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dv {

/// Output of one inference pass (sequential::infer).
struct inference {
  /// Raw model outputs [N, num_classes].
  tensor logits;
  /// One [N, ...] tensor per probe point, network order: the hidden
  /// representations f_i(x). Empty when the caller asked for no probes.
  std::vector<tensor> probes;
};

class sequential {
 public:
  /// Rows per inference slice. Fixed, never derived from the thread count,
  /// and chosen by measurement: small enough that a training batch of 128
  /// keeps every core busy, large enough that each slice amortizes its
  /// per-layer dispatch.
  static constexpr std::int64_t infer_slice_rows = 4;

  sequential() = default;

  /// Appends a layer; `probe` marks it as a Deep Validation probe point.
  layer& add(std::unique_ptr<layer> l, bool probe = false);

  /// Stateful forward pass to logits [N, num_classes], for training and
  /// gradient attacks: every layer caches what backward() needs.
  tensor forward(const tensor& x, bool training = false);

  /// Backward pass from logits gradient; returns gradient w.r.t. the input.
  tensor backward(const tensor& grad_logits);

  /// Reentrant inference pass over [N, ...] inputs: the logits and, when
  /// `with_probes`, every probe output. Runs each infer_slice_rows-row
  /// slice through the whole network inside one parallel region (a batch
  /// of one slice keeps kernel-level parallelism instead). Every row is
  /// bitwise equal to forward(x, false) for any slicing, DV_THREADS and
  /// DV_SIMD, and any number of threads may call it on one model at once.
  inference infer(const tensor& x, bool with_probes = true) const;

  /// Softmax probabilities [N, num_classes].
  tensor probabilities(const tensor& x) const;

  /// Argmax class predictions.
  std::vector<std::int64_t> predict(const tensor& x) const;

  /// Total number of probe points in the network.
  int probe_count() const;

  /// All trainable parameters.
  std::vector<param_ref> params();
  /// All persistent buffers (batch-norm statistics).
  std::vector<tensor*> state();
  /// Total number of trainable scalars.
  std::int64_t param_count();

  /// Zeroes all parameter gradients.
  void zero_grad();

  std::size_t layer_count() const { return layers_.size(); }
  layer& at(std::size_t i) { return *layers_[i]; }
  const layer& at(std::size_t i) const { return *layers_[i]; }

  /// Multi-line architecture summary (used to print Table II).
  std::string describe() const;

  /// Saves parameters + state to `path` as a flat snapshot
  /// (docs/SNAPSHOTS.md); the architecture itself is rebuilt in code by
  /// the caller before loading.
  void save_params(const std::string& path) const;
  /// Loads parameters + state; throws serialize_error on a file that is
  /// not a model snapshot, a count or shape mismatch, or corruption, and
  /// then leaves the model unchanged.
  void load_params(const std::string& path);

 private:
  std::vector<std::unique_ptr<layer>> layers_;
};

}  // namespace dv
