#include "serve/scoring.h"

#include <limits>
#include <stdexcept>

#include "util/metrics.h"

namespace dv {

namespace {

/// Fails closed on frames that hold a NaN or an infinity
/// (frame_nonfinite): their rows score a joint of +inf and become invalid
/// and nonfinite, the rule of validator_bank_view::evaluate over images;
/// per_layer stays as scored.
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
    row.joint = std::numeric_limits<double>::infinity();
    row.invalid = true;
    row.nonfinite = true;
    ++flagged;
  }
  if (flagged > 0 && metrics::enabled()) {
    metrics::count("dv_serve_nonfinite_frames_total", flagged);
  }
}

}  // namespace

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
  if (frame_cache_ != nullptr && cache_generation_ != current->generation) {
    // Every cached row was scored by another bank, maybe at another
    // resolution.
    frame_cache_ = std::make_unique<activation_cache>(
        frame_cache_->lru().capacity(), bank.spatial());
    cache_generation_ = current->generation;
  }
  const validation_scores s =
      score_cached(model_, frames, bank, frame_cache_.get());

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
