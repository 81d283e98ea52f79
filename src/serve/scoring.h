// Batch-first scoring runtime: request/result types and the batch scorer
// behind the serving layer (docs/SERVING.md).
//
// The serving layer turns single-frame requests into coalesced batches so
// one probe forward pass is amortized across the frames of a batch, all
// scored by engine_scorer against the bank an engine_handle publishes.
// Because all forward kernels are per-row independent (DESIGN.md §8), a
// frame's scores are bitwise identical no matter which batch it lands in —
// batch composition is purely a throughput knob.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/activation_cache.h"
#include "core/batch_config.h"
#include "serve/engine_handle.h"
#include "tensor/tensor.h"

namespace dv {

/// What a producer does when the bounded request queue is full.
enum class overflow_policy {
  /// Block the submitting thread until the worker frees a slot.
  block,
  /// Throw serve_rejected_error immediately (load shedding).
  reject,
  /// Score the frame inline on the caller's thread as a batch of one
  /// (serialized with the worker — the scorer's activation cache takes one
  /// stream at a time). Only valid for stateless scorers: the frame jumps
  /// the queue.
  caller_runs,
};

struct serve_config {
  /// Maximum frames coalesced into one evaluate call.
  batch_config batch{};
  /// No effect: the worker scores whatever is queued as soon as it is
  /// free, so a partial batch never waits for more frames. Kept so
  /// existing configurations build; must be >= 0.
  std::chrono::microseconds max_delay{1000};
  /// Bound of the request queue — the backpressure knob.
  std::size_t queue_capacity{256};
  overflow_policy on_full{overflow_policy::block};
};

/// Thrown by submit() under overflow_policy::reject when the queue is full.
class serve_rejected_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything the batch path knows about one scored frame.
struct scoring_result {
  /// Joint discrepancy d = sum_i d_i (Equation 3).
  double joint{0.0};
  std::int64_t prediction{-1};
  /// joint > validator threshold epsilon; a NaN joint is invalid too,
  /// and so is a non-finite frame.
  bool invalid{false};
  /// The frame held a NaN or an infinity, so the row fails closed: its
  /// joint is +inf and it is invalid, as validator_bank_view::evaluate
  /// over images scores it (dv_serve_nonfinite_frames_total).
  bool nonfinite{false};
  /// Per validated layer discrepancy d_i.
  std::vector<double> per_layer;
  /// Weighted joint score; meaningful only when has_weighted.
  double weighted{0.0};
  bool has_weighted{false};
  /// Generation of the published bank that scored this frame (see
  /// serve/engine_handle.h). Every frame of one batch carries the same
  /// generation.
  std::uint64_t generation{0};
};

/// Scores a stacked [N,C,H,W] batch of frames. Implementations are called
/// from the micro-batcher's worker thread (or, under caller_runs, from a
/// producer thread — never concurrently; the batcher serializes calls).
class batch_scorer {
 public:
  virtual ~batch_scorer() = default;
  batch_scorer() = default;
  batch_scorer(const batch_scorer&) = delete;
  batch_scorer& operator=(const batch_scorer&) = delete;

  virtual std::vector<scoring_result> score(const tensor& frames) = 0;
};

/// The scorer: one activation extraction per batch, scored against
/// whatever bank the engine_handle currently publishes
/// (serve/engine_handle.h). A fixed validator is served by publishing
/// its bank() once (generation 1). The bank is loaded ONCE per batch —
/// every frame of a batch scores against one generation, and a publish
/// between batches never drains the queue. Weighted scores come from the
/// bank's combiner when it carries one (bank.weighted()). Probes are
/// reduced at the published bank's resolution inside the forward pass,
/// and the activation cache holds them at that resolution, with the row
/// the bank scored from them (score_cached); the first batch after a
/// publish starts a new, cold cache. Banks hold no state, so any number
/// of scorers may share one handle.
class engine_scorer : public batch_scorer {
 public:
  /// `model` and `handle` must outlive the scorer. The handle may be
  /// empty at construction; score() before the first publish throws.
  engine_scorer(sequential& model, const engine_handle& handle);

  std::vector<scoring_result> score(const tensor& frames) override;

  /// The frame-level activation cache of the last bank it scored with,
  /// or nullptr when caching was off at construction (DV_CACHE,
  /// docs/CACHING.md).
  const activation_cache* frame_cache() const { return frame_cache_.get(); }

 private:
  sequential& model_;
  const engine_handle& handle_;
  std::unique_ptr<activation_cache> frame_cache_;
  /// Generation of the bank that scored every row of frame_cache_; 0
  /// before the first batch.
  std::uint64_t cache_generation_{0};
};

}  // namespace dv
