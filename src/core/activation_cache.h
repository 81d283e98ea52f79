// Strong-hash frame cache in front of extract_activations
// (docs/CACHING.md). Real camera feeds are temporally redundant: a
// parked car, a static scene, a duplicated keyframe all resubmit the
// same tensor bytes. The cache keys each frame by the 128-bit strong
// hash of its raw bytes and stores the full per-frame forward-pass
// product (logits, prediction, every probe activation), so a repeated
// frame skips the model entirely.
//
// Transparency: the model's forward pass is batch-invariant (each row's
// result is independent of which other rows share the batch — DESIGN.md
// §8), so scoring a sub-batch of cache misses and splicing cached rows
// back in is bitwise identical to scoring the full batch. Enforced by
// tests/test_cache.cpp across DV_THREADS × DV_SIMD × cache on/off.
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation_batch.h"
#include "util/strong_lru.h"

namespace dv {

/// The per-frame slice of an activation_batch, as stored in the cache.
struct cached_frame_activations {
  std::vector<float> logits;
  std::int64_t prediction{0};
  /// One [1, ...] tensor per probe layer, network order.
  std::vector<tensor> probes;
};

/// Fixed-capacity LRU over cached_frame_activations, labeled
/// "activation" in the dv_cache_* metric series. Owned by one scorer
/// and mutated only from its (serialized) scoring path.
class activation_cache {
 public:
  /// Capacity defaults to the process-wide DV_CACHE_CAPACITY knob.
  activation_cache();
  explicit activation_cache(std::size_t capacity);

  strong_lru_cache<cached_frame_activations>& lru() { return lru_; }
  const strong_lru_cache<cached_frame_activations>& lru() const {
    return lru_;
  }

 private:
  strong_lru_cache<cached_frame_activations> lru_;
};

/// extract_activations with a frame cache: hashes every row of `images`,
/// runs the forward pass only over the rows the cache does not hold, and
/// splices cached rows into the result. With `cache == nullptr` or
/// caching disabled it is exactly extract_activations.
activation_batch extract_activations_cached(const sequential& model,
                                            tensor images,
                                            activation_cache* cache);

}  // namespace dv
