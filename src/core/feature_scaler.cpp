#include "core/feature_scaler.h"

#include <cmath>
#include <stdexcept>

#include "util/flat_snapshot.h"
#include "util/serialize.h"

namespace dv {

void feature_scaler::fit(const tensor& features) {
  if (features.dim() != 2 || features.extent(0) < 1) {
    throw std::invalid_argument{"feature_scaler::fit: need [n>=1, d]"};
  }
  const std::int64_t n = features.extent(0);
  const std::int64_t d = features.extent(1);
  mean_.assign(static_cast<std::size_t>(d), 0.0f);
  inv_std_.assign(static_cast<std::size_t>(d), 1.0f);
  std::vector<double> sum(static_cast<std::size_t>(d), 0.0);
  std::vector<double> sum2(static_cast<std::size_t>(d), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = features.data() + i * d;
    for (std::int64_t j = 0; j < d; ++j) {
      sum[static_cast<std::size_t>(j)] += row[j];
      sum2[static_cast<std::size_t>(j)] += static_cast<double>(row[j]) * row[j];
    }
  }
  for (std::int64_t j = 0; j < d; ++j) {
    const double m = sum[static_cast<std::size_t>(j)] / static_cast<double>(n);
    const double var =
        sum2[static_cast<std::size_t>(j)] / static_cast<double>(n) - m * m;
    mean_[static_cast<std::size_t>(j)] = static_cast<float>(m);
    inv_std_[static_cast<std::size_t>(j)] =
        var > 1e-10 ? static_cast<float>(1.0 / std::sqrt(var)) : 1.0f;
  }
}

void feature_scaler::transform(tensor& features) const {
  if (!fitted()) throw std::logic_error{"feature_scaler: not fitted"};
  view().transform(features);
}

void feature_scaler::transform_row(std::span<float> row) const {
  if (!fitted()) throw std::logic_error{"feature_scaler: not fitted"};
  view().transform_row(row);
}

// ---------------------------------------------------------------------------
// scaler_view — the single transform implementation (the builder delegates
// through view(), so owned and snapshot-backed scaling are one code path).

scaler_view::scaler_view(std::span<const float> mean,
                         std::span<const float> inv_std)
    : mean_{mean}, inv_std_{inv_std} {
  if (mean_.size() != inv_std_.size()) {
    throw std::invalid_argument{"scaler_view: mean/inv_std length mismatch"};
  }
}

void scaler_view::transform(tensor& features) const {
  if (!valid()) throw std::logic_error{"feature_scaler: not fitted"};
  const std::int64_t n = features.extent(0);
  const std::int64_t d = features.extent(1);
  if (d != dimension()) {
    throw std::invalid_argument{"feature_scaler::transform: dim mismatch"};
  }
  for (std::int64_t i = 0; i < n; ++i) {
    transform_row({features.data() + i * d, static_cast<std::size_t>(d)});
  }
}

void scaler_view::transform_row(std::span<float> row) const {
  if (static_cast<std::int64_t>(row.size()) != dimension()) {
    throw std::invalid_argument{"feature_scaler::transform_row: dim mismatch"};
  }
  for (std::size_t j = 0; j < row.size(); ++j) {
    row[j] = (row[j] - mean_[j]) * inv_std_[j];
  }
}

// ---------------------------------------------------------------------------
// Serialization: flat snapshot sections.

void feature_scaler::save_snapshot(snapshot_writer& w,
                                   const std::string& prefix) const {
  if (!fitted()) {
    throw std::logic_error{"feature_scaler::save_snapshot: not fitted"};
  }
  w.add_f32(prefix + "mean", mean_);
  w.add_f32(prefix + "istd", inv_std_);
}

scaler_view scaler_view::from_snapshot(const snapshot_view& snap,
                                       const std::string& prefix) {
  const auto mean = snap.f32(prefix + "mean");
  const auto istd = snap.f32(prefix + "istd");
  if (mean.empty() || mean.size() != istd.size()) {
    throw serialize_error{"snapshot scaler '" + prefix +
                          "': inconsistent shape"};
  }
  return scaler_view{mean, istd};
}

feature_scaler feature_scaler::load_snapshot(const snapshot_view& snap,
                                             const std::string& prefix) {
  const scaler_view v = scaler_view::from_snapshot(snap, prefix);
  feature_scaler out;
  out.mean_.assign(v.mean().begin(), v.mean().end());
  out.inv_std_.assign(v.inv_std().begin(), v.inv_std().end());
  return out;
}

}  // namespace dv
