#include "core/monitor.h"

#include <stdexcept>

#include "util/metrics.h"
#include "util/trace.h"

namespace dv {

namespace {
/// Joint discrepancies in practice sit in [-0.5, 2]; valid frames are
/// negative, corner cases positive (see EXPERIMENTS.md), so linear
/// buckets across that range separate the two populations. Values are
/// deterministic model outputs — with 2^20 fixed-point resolution the
/// histogram sum is bitwise stable across thread counts.
metrics::histogram_options discrepancy_buckets() {
  return metrics::histogram_options::linear(-0.5, 2.0, 10, /*scale=*/1048576.0);
}
}  // namespace

runtime_monitor::runtime_monitor(sequential& model,
                                 const deep_validator& validator,
                                 monitor_config config)
    : model_{model}, validator_{validator}, config_{config} {
  if (config_.window < 1 || config_.trigger_count < 1 ||
      config_.trigger_count > config_.window || config_.release_count < 1) {
    throw std::invalid_argument{"runtime_monitor: bad configuration"};
  }
  if (!validator_.fitted()) {
    throw std::logic_error{"runtime_monitor: validator not fitted"};
  }
}

monitor_verdict runtime_monitor::apply(const frame_score& score) {
  return apply(score, validator_.flags_invalid(score.discrepancy), 0);
}

monitor_verdict runtime_monitor::apply(const frame_score& score,
                                       bool frame_invalid,
                                       std::uint64_t generation) {
  monitor_verdict v;
  v.discrepancy = score.discrepancy;
  v.prediction = score.prediction;
  v.frame_invalid = frame_invalid;
  v.generation = generation;

  window_.push_back(v.frame_invalid);
  if (static_cast<int>(window_.size()) > config_.window) window_.pop_front();
  ++frames_seen_;

  int invalid_in_window = 0;
  for (const bool b : window_) invalid_in_window += b ? 1 : 0;

  if (v.frame_invalid) {
    consecutive_valid_ = 0;
  } else {
    ++consecutive_valid_;
  }
  bool latched = false;
  bool released = false;
  if (!alarmed_ && invalid_in_window >= config_.trigger_count) {
    alarmed_ = true;
    latched = true;
  } else if (alarmed_ && consecutive_valid_ >= config_.release_count) {
    alarmed_ = false;
    released = true;
  }
  v.alarm = alarmed_;

  if (metrics::enabled()) {
    metrics::count("dv_monitor_frames_total");
    if (v.frame_invalid) metrics::count("dv_monitor_frames_invalid_total");
    if (v.alarm) metrics::count("dv_monitor_alarm_frames_total");
    if (latched) metrics::count("dv_monitor_alarm_latch_total");
    if (released) metrics::count("dv_monitor_alarm_release_total");
    metrics::observe("dv_monitor_discrepancy", discrepancy_buckets(),
                   v.discrepancy);
    metrics::set("dv_monitor_window_invalid_fraction",
               static_cast<double>(invalid_in_window) /
                   static_cast<double>(window_.size()));
  }
  return v;
}

monitor_verdict runtime_monitor::observe(const tensor& frame) {
  trace_span span{"monitor.observe"};
  tensor batch = frame;
  if (batch.dim() == 3) {
    batch.reshape({1, frame.extent(0), frame.extent(1), frame.extent(2)});
  }
  const auto scores = validator_.evaluate(model_, batch);
  return apply({scores.joint.front(), scores.predictions.front()});
}

std::vector<monitor_verdict> runtime_monitor::observe_batch(
    const tensor& frames) {
  trace_span span{"monitor.observe_batch"};
  const auto scores = validator_.evaluate(model_, frames);
  std::vector<monitor_verdict> out;
  out.reserve(scores.joint.size());
  for (std::size_t i = 0; i < scores.joint.size(); ++i) {
    out.push_back(apply({scores.joint[i], scores.predictions[i]}));
  }
  return out;
}

double runtime_monitor::window_invalid_fraction() const {
  if (window_.empty()) return 0.0;
  int invalid = 0;
  for (const bool b : window_) invalid += b ? 1 : 0;
  return static_cast<double>(invalid) / static_cast<double>(window_.size());
}

void runtime_monitor::reset() {
  window_.clear();
  alarmed_ = false;
  consecutive_valid_ = 0;
  frames_seen_ = 0;
}

}  // namespace dv
