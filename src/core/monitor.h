// Runtime fail-safe monitor built on Deep Validation.
//
// The paper's deployment story (§I, §VI): a running DNN-based system
// validates every input and "actively calls for human intervention when the
// system is perceived working incorrectly". This component wraps a fitted
// deep_validator with an alarm policy suitable for streams:
//  - per-frame verdicts from the joint-discrepancy threshold epsilon,
//  - a sliding window of recent verdicts,
//  - hysteresis: the alarm latches after `trigger_count` invalid frames in
//    the window and releases only after `release_count` consecutive valid
//    frames, avoiding alarm flapping on borderline inputs.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/deep_validator.h"

namespace dv {

struct monitor_config {
  /// Sliding-window length in frames.
  int window{8};
  /// Invalid frames within the window that latch the alarm.
  int trigger_count{3};
  /// Consecutive valid frames that release a latched alarm.
  int release_count{4};
};

/// Per-frame monitoring outcome.
struct monitor_verdict {
  double discrepancy{0.0};
  std::int64_t prediction{-1};
  bool frame_invalid{false};
  bool alarm{false};  // latched state after this frame
  /// Generation of the published bank that judged the frame (0 when the
  /// monitor's own validator did; see serve/engine_handle.h).
  std::uint64_t generation{0};
};

/// One scored frame as produced by the batch path: the joint discrepancy
/// and the model prediction. The monitor's hysteresis state machine is
/// fed these — it never runs the model itself on this path.
struct frame_score {
  double discrepancy{0.0};
  std::int64_t prediction{-1};
};

class runtime_monitor {
 public:
  /// `model` and `validator` must outlive the monitor; the validator's
  /// threshold must already be set.
  runtime_monitor(sequential& model, const deep_validator& validator,
                  monitor_config config = {});

  /// Pure state-machine step: folds one scored frame into the sliding
  /// window, updates the hysteresis latch, and returns the verdict. The
  /// frame's validity comes from this monitor's validator threshold. Not
  /// thread-safe — callers (the serving worker, observe) apply scores in
  /// stream order.
  monitor_verdict apply(const frame_score& score);

  /// The same step for a frame the scorer has already judged: validity
  /// and generation come from the bank that scored it, so a newly
  /// published threshold takes effect with its generation
  /// (monitor_service folds rows this way).
  monitor_verdict apply(const frame_score& score, bool frame_invalid,
                        std::uint64_t generation);

  /// Feeds one [C,H,W] frame; returns the verdict and updates alarm state.
  /// Thin wrapper: one-frame evaluate + apply().
  monitor_verdict observe(const tensor& frame);

  /// Feeds a [N,C,H,W] batch of consecutive stream frames with shared
  /// activation extraction; verdicts are applied in row order and are
  /// bitwise identical to calling observe() per frame.
  std::vector<monitor_verdict> observe_batch(const tensor& frames);

  /// The validator whose threshold judges frames passed to
  /// apply(score), observe and observe_batch.
  const deep_validator& validator() const { return validator_; }

  bool alarmed() const { return alarmed_; }
  /// Fraction of invalid frames in the current window.
  double window_invalid_fraction() const;
  /// Frames observed so far.
  std::int64_t frames_seen() const { return frames_seen_; }
  /// Resets window, alarm latch, and counters.
  void reset();

 private:
  sequential& model_;
  const deep_validator& validator_;
  monitor_config config_;
  std::deque<bool> window_;
  bool alarmed_{false};
  int consecutive_valid_{0};
  std::int64_t frames_seen_{0};
};

}  // namespace dv
