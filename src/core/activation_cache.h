// Strong-hash frame cache of the scoring path (docs/CACHING.md). Real
// camera feeds are temporally redundant: a parked car, a static scene, a
// duplicated keyframe all resubmit the same tensor bytes. The cache keys
// each frame by the 128-bit strong hash of its raw bytes and stores what
// the validator bank reads of the frame's forward pass (logits,
// prediction, every probe reduced at the cache's one resolution) and the
// row the bank scored from them, so a repeated frame skips the model, the
// reducer and the bank. A cache serves one bank for its whole life.
//
// Transparency: the model's forward pass, the probe reducer and the bank
// are all batch-invariant (each row's result is independent of which
// other rows share the batch — DESIGN.md §8), so scoring a sub-batch of
// cache misses and splicing cached rows back in is bitwise identical to
// scoring the full batch. Enforced by tests/test_cache.cpp across
// DV_THREADS × DV_SIMD × cache on/off.
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation_batch.h"
#include "core/validator_bank.h"
#include "util/strong_lru.h"

namespace dv {

/// One frame's cache entry: the per-frame row of a reduced
/// activation_batch and, when score_cached inserted it, the bank's row.
struct cached_frame_activations {
  std::vector<float> logits;
  std::int64_t prediction{0};
  /// One reduced [1, ...] row per probe layer, network order.
  std::vector<tensor> probes;
  /// d_i per validated layer, as the bank scored them; empty when no bank
  /// scored the frame.
  std::vector<double> per_layer;
  /// Joint discrepancy d = sum_i d_i (Equation 3).
  double joint{0.0};
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

/// bank.evaluate(extract_activations(model, images, bank.spatial())),
/// bit for bit, through the frame cache: a frame the cache holds skips the
/// forward pass and the bank — its stored row is copied out — and the
/// bank scores each distinct missed frame once. Like that evaluate, it
/// leaves non-finite frames as scored; the caller fails them closed.
/// Every entry of `cache` must have been scored by `bank` (a cache serves
/// one bank: start a new one for another; a hit on an entry no bank
/// scored throws std::logic_error), and cache->spatial() must be
/// bank.spatial() (else std::invalid_argument). With `cache == nullptr`
/// or caching disabled, it is that evaluate.
validation_scores score_cached(const sequential& model, const tensor& images,
                               const validator_bank_view& bank,
                               activation_cache* cache);

}  // namespace dv
