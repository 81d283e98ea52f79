#include "serve/scoring.h"

#include <stdexcept>

#include "core/activation_batch.h"
#include "util/metrics.h"

namespace dv {

namespace {

/// Fails closed on frames that hold a NaN or an infinity
/// (frame_nonfinite): their rows become invalid and nonfinite.
void fail_nonfinite_rows(const tensor& frames,
                         std::vector<scoring_result>& rows) {
  if (rows.empty()) return;
  const auto n = static_cast<std::int64_t>(rows.size());
  const std::int64_t frame_elems = frames.numel() / n;
  std::uint64_t flagged = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!frame_nonfinite(frames.data() + i * frame_elems, frame_elems)) {
      continue;
    }
    auto& row = rows[static_cast<std::size_t>(i)];
    row.invalid = true;
    row.nonfinite = true;
    ++flagged;
  }
  if (flagged > 0 && metrics::enabled()) {
    metrics::count("dv_serve_nonfinite_frames_total", flagged);
  }
}

}  // namespace

validator_scorer::validator_scorer(sequential& model,
                                   const deep_validator& validator)
    : model_{model}, validator_{validator} {
  if (!validator_.fitted()) {
    throw std::logic_error{"validator_scorer: validator not fitted"};
  }
  if (cache_enabled()) {
    frame_cache_ = std::make_unique<activation_cache>(cache_capacity(),
                                                      validator_.spatial());
  }
}

void validator_scorer::attach_weighted(
    const weighted_joint_validator& weighted) {
  if (!weighted.fitted()) {
    throw std::logic_error{"validator_scorer: weighted combiner not fitted"};
  }
  weighted_ = &weighted;
}

void validator_scorer::attach_detector(anomaly_detector& detector) {
  detectors_.push_back(&detector);
}

std::vector<scoring_result> validator_scorer::score(const tensor& frames) {
  // The one shared forward pass for the whole fan-out; repeated frames
  // come out of the activation cache instead (docs/CACHING.md).
  const activation_batch acts =
      extract_activations_cached(model_, frames, frame_cache_.get());
  const auto s = validator_.evaluate(acts);

  std::vector<double> weighted;
  if (weighted_ != nullptr) {
    weighted = weighted_->score_batch(validator_, acts);
  }
  std::vector<std::vector<double>> detector_scores(detectors_.size());
  for (std::size_t d = 0; d < detectors_.size(); ++d) {
    detector_scores[d] = detectors_[d]->score_activations(acts);
  }

  const std::size_t n = s.joint.size();
  std::vector<scoring_result> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& row = out[i];
    row.joint = s.joint[i];
    row.prediction = s.predictions[i];
    row.invalid = validator_.flags_invalid(row.joint);
    row.per_layer.reserve(s.per_layer.size());
    for (const auto& layer : s.per_layer) row.per_layer.push_back(layer[i]);
    row.detector_scores.reserve(detectors_.size());
    for (const auto& scores : detector_scores) {
      row.detector_scores.push_back(scores[i]);
    }
    if (weighted_ != nullptr) {
      row.weighted = weighted[i];
      row.has_weighted = true;
    }
  }
  fail_nonfinite_rows(frames, out);
  return out;
}

engine_scorer::engine_scorer(sequential& model, const engine_handle& handle)
    : model_{model}, handle_{handle} {
  if (cache_enabled()) {
    frame_cache_ = std::make_unique<activation_cache>();
  }
}

std::vector<scoring_result> engine_scorer::score(const tensor& frames) {
  // Pin the current bank ONCE for the whole batch: a publish() racing
  // with this call either lands before the load (whole batch on the new
  // generation) or after (whole batch on the old one, kept alive by this
  // shared_ptr) — never a mix.
  const std::shared_ptr<const published_bank> current = handle_.current();
  if (current == nullptr) {
    throw std::logic_error{"engine_scorer: no bank published yet"};
  }
  const validator_bank_view& bank = current->bank;
  if (frame_cache_ != nullptr && frame_cache_->spatial() != bank.spatial()) {
    // Cached rows were reduced for a bank that read another resolution.
    frame_cache_ = std::make_unique<activation_cache>(
        frame_cache_->lru().capacity(), bank.spatial());
  }
  const activation_batch acts =
      extract_activations_cached(model_, frames, frame_cache_.get());
  const auto s = bank.evaluate(acts);

  const bool has_weighted = bank.weighted().valid();
  const std::size_t n = s.joint.size();
  std::vector<scoring_result> out(n);
  std::vector<double> row_buffer(s.per_layer.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto& row = out[i];
    row.joint = s.joint[i];
    row.prediction = s.predictions[i];
    row.invalid = bank.flags_invalid(row.joint);
    row.generation = current->generation;
    row.per_layer.reserve(s.per_layer.size());
    for (const auto& layer : s.per_layer) row.per_layer.push_back(layer[i]);
    if (has_weighted) {
      for (std::size_t l = 0; l < s.per_layer.size(); ++l) {
        row_buffer[l] = s.per_layer[l][i];
      }
      row.weighted = bank.weighted().decision(row_buffer);
      row.has_weighted = true;
    }
  }
  fail_nonfinite_rows(frames, out);
  return out;
}

}  // namespace dv
