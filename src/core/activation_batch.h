// Shared activation-extraction entry point for the batch-first scoring
// path (docs/SERVING.md). One inference pass per batch produces an
// activation_batch; the validator bank and the KDE, Mahalanobis and LID
// detectors then score from it without re-running the model.
//
// The probe tensors are the ones sequential::infer returned: reduced at
// one resolution inside each inference slice for the validator bank, fit,
// the activation cache and LID (extract_activations(model, images,
// spatial)), or raw for the KDE and Mahalanobis detectors, which read the
// last probe itself.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.h"
#include "tensor/tensor.h"

namespace dv {

struct activation_batch {
  /// Raw model outputs [N, classes].
  tensor logits;
  /// argmax of `logits` per row.
  std::vector<std::int64_t> predictions;
  /// One tensor per probe point, network order: raw activations, or the
  /// reduced features when reduced_spatial > 0.
  std::vector<tensor> probes;
  /// 0 when `probes` are raw activations. s >= 1 when every probe was
  /// reduced with reduce_probe(probe, s) (row by row, inside each
  /// inference slice or per cached frame): a convolutional probe keeps its
  /// rank as [N, C, s', s'], a dense one stays [N, d].
  int reduced_spatial{0};

  std::int64_t size() const { return logits.extent(0); }
  int probe_count() const { return static_cast<int>(probes.size()); }

  /// Reduced features of probe `p` at the given spatial resolution,
  /// [N, d] (see nn/probe_reducer.h). A raw batch reduces here; a batch
  /// reduced at `spatial` returns a copy of its rows; a batch reduced at
  /// any other resolution throws std::logic_error.
  tensor probe_features(int p, int spatial) const;
  /// Last (penultimate-layer) probe flattened to [N, d] — the feature
  /// space of the KDE and Mahalanobis detectors. Throws std::logic_error
  /// when the batch no longer holds it: on a reduced batch whose last
  /// probe was convolutional.
  tensor last_probe_features() const;
};

/// Runs ONE inference pass (sequential::infer) over `images` ([N,C,H,W]
/// or a single [C,H,W] frame) and captures logits, predictions, and all
/// raw probe activations. The caller is responsible for chunking to its
/// batch_config. Safe to call from several threads on one model.
activation_batch extract_activations(const sequential& model,
                                     const tensor& images);

/// The same pass with every probe reduced at `spatial` (>= 1) inside its
/// inference slice: reduced_spatial == spatial, and each probe row equals
/// reduce_probe of the raw row bit for bit. This is what the validator
/// bank reads; no raw probe of the whole batch is allocated.
activation_batch extract_activations(const sequential& model,
                                     const tensor& images, int spatial);

}  // namespace dv
