// Shared activation-extraction entry point for the batch-first scoring
// path (docs/SERVING.md). One inference pass per batch produces an
// activation_batch; the deep validator, the weighted joint validator, and
// every anomaly detector then score from it without re-running the model.
//
// The probe tensors are the ones sequential::infer returned: owned by the
// batch, so a served batch can fan out to N consumers that each may run
// further passes (e.g. feature squeezing).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.h"
#include "tensor/tensor.h"

namespace dv {

struct activation_batch {
  /// The input images [N,C,H,W] (kept for consumers that need extra
  /// forward passes, e.g. squeezed variants).
  tensor images;
  /// Raw model outputs [N, classes].
  tensor logits;
  /// argmax of `logits` per row.
  std::vector<std::int64_t> predictions;
  /// One tensor per probe point, network order.
  std::vector<tensor> probes;

  std::int64_t size() const { return logits.extent(0); }
  int probe_count() const { return static_cast<int>(probes.size()); }

  /// Reduced features of probe `p` at the given spatial resolution,
  /// [N, d] (see core/probe_reducer.h).
  tensor probe_features(int p, int spatial) const;
  /// Last (penultimate-layer) probe flattened to [N, d] — the feature
  /// space of the KDE and Mahalanobis detectors.
  tensor last_probe_features() const;
};

/// Runs ONE inference pass (sequential::infer) over `images` ([N,C,H,W]
/// or a single [C,H,W] frame) and captures logits, predictions, and all
/// probe activations. The caller is responsible for chunking to its
/// batch_config. Safe to call from several threads on one model.
activation_batch extract_activations(const sequential& model, tensor images);

}  // namespace dv
