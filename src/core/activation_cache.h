// Strong-hash frame cache in front of extract_activations
// (docs/CACHING.md). Real camera feeds are temporally redundant: a
// parked car, a static scene, a duplicated keyframe all resubmit the
// same tensor bytes. The cache keys each frame by the 128-bit strong
// hash of its raw bytes and stores what the validator bank reads of the
// frame's forward pass (logits, prediction, every probe reduced at the
// cache's one resolution), so a repeated frame skips the model and the
// reducer entirely.
//
// Transparency: the model's forward pass and the probe reducer are both
// batch-invariant (each row's result is independent of which other rows
// share the batch — DESIGN.md §8), so scoring a sub-batch of cache misses
// and splicing cached rows back in is bitwise identical to reducing the
// full batch. Enforced by tests/test_cache.cpp across DV_THREADS ×
// DV_SIMD × cache on/off.
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation_batch.h"
#include "util/strong_lru.h"

namespace dv {

/// The per-frame row of a reduced activation_batch, as stored in the
/// cache.
struct cached_frame_activations {
  std::vector<float> logits;
  std::int64_t prediction{0};
  /// One reduced [1, ...] row per probe layer, network order.
  std::vector<tensor> probes;
};

/// Fixed-capacity LRU over cached_frame_activations at one reducer
/// resolution, labeled "activation" in the dv_cache_* metric series.
/// Owned by one scorer and mutated only from its (serialized) scoring
/// path.
class activation_cache {
 public:
  /// DV_CACHE_CAPACITY entries at the validator's default resolution,
  /// deep_validator_config::spatial.
  activation_cache();
  /// `capacity` entries holding probes reduced at `spatial` (>= 1).
  activation_cache(std::size_t capacity, int spatial);

  /// The resolution every cached probe row is reduced at.
  int spatial() const { return spatial_; }

  strong_lru_cache<cached_frame_activations>& lru() { return lru_; }
  const strong_lru_cache<cached_frame_activations>& lru() const {
    return lru_;
  }

 private:
  strong_lru_cache<cached_frame_activations> lru_;
  int spatial_;
};

/// extract_activations with a frame cache: hashes every row of `images`,
/// runs the forward pass (its probes reduced inside each inference slice)
/// only over the rows the cache does not hold, and splices cached rows
/// into the result, whose probes are reduced at cache->spatial()
/// (activation_batch::reduced_spatial). With caching disabled it is
/// extract_activations(model, images, cache->spatial()); with
/// `cache == nullptr` it is extract_activations, raw probes included.
activation_batch extract_activations_cached(const sequential& model,
                                            const tensor& images,
                                            activation_cache* cache);

}  // namespace dv
