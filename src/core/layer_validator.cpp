#include "core/layer_validator.h"

#include <algorithm>
#include <stdexcept>

#include "util/flat_snapshot.h"
#include "util/metrics.h"
#include "util/serialize.h"

namespace dv {

void layer_validator::fit(const tensor& features,
                          const std::vector<std::int64_t>& labels,
                          int num_classes,
                          const one_class_svm_config& config) {
  if (features.dim() != 2 ||
      static_cast<std::size_t>(features.extent(0)) != labels.size()) {
    throw std::invalid_argument{"layer_validator::fit: bad inputs"};
  }
  scaler_.fit(features);
  tensor scaled = features;
  scaler_.transform(scaled);

  const std::int64_t d = scaled.extent(1);
  metrics::counter* svms_fitted = metrics::get_counter("dv_validator_svms_fitted_total");
  metrics::histogram* svm_fit_seconds = metrics::get_histogram(
      "dv_validator_svm_fit_seconds", metrics::histogram_options::latency());
  svms_.clear();
  svms_.resize(static_cast<std::size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    std::vector<std::int64_t> rows;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == k) rows.push_back(static_cast<std::int64_t>(i));
    }
    if (rows.size() < 2) {
      throw std::invalid_argument{
          "layer_validator::fit: class " + std::to_string(k) +
          " has fewer than 2 samples"};
    }
    tensor subset{{static_cast<std::int64_t>(rows.size()), d}};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::copy_n(scaled.data() + rows[i] * d, d,
                  subset.data() + static_cast<std::int64_t>(i) * d);
    }
    const std::int64_t svm_start_ns =
        svm_fit_seconds != nullptr ? metrics::now_ns() : 0;
    svms_[static_cast<std::size_t>(k)].fit(subset, config);
    if (svm_fit_seconds != nullptr) {
      svm_fit_seconds->observe(
          static_cast<double>(metrics::now_ns() - svm_start_ns) * 1e-9);
      svms_fitted->add();
    }
  }
}

layer_validator_view layer_validator::view() const {
  if (!fitted()) throw std::logic_error{"layer_validator: not fitted"};
  std::vector<one_class_svm_view> views;
  views.reserve(svms_.size());
  for (const auto& svm : svms_) views.push_back(svm.view());
  return layer_validator_view{scaler_.view(), std::move(views)};
}

double layer_validator::discrepancy(std::int64_t predicted_class,
                                    std::span<const float> feature) const {
  if (!fitted()) throw std::logic_error{"layer_validator: not fitted"};
  return view().discrepancy(predicted_class, feature);
}

std::vector<double> layer_validator::discrepancy_batch(
    const std::vector<std::int64_t>& predicted_classes,
    const tensor& features) const {
  if (!fitted()) throw std::logic_error{"layer_validator: not fitted"};
  return view().discrepancy_batch(predicted_classes, features);
}

// ---------------------------------------------------------------------------
// layer_validator_view — the single discrepancy implementation (builder
// delegates through view(), so owned and snapshot-backed paths share it).

layer_validator_view::layer_validator_view(
    scaler_view scaler, std::vector<one_class_svm_view> svms)
    : scaler_{scaler}, svms_{std::move(svms)} {}

double layer_validator_view::discrepancy(std::int64_t predicted_class,
                                         std::span<const float> feature) const {
  if (!valid()) throw std::logic_error{"layer_validator: not fitted"};
  if (predicted_class < 0 ||
      predicted_class >= static_cast<std::int64_t>(svms_.size())) {
    throw std::out_of_range{"layer_validator::discrepancy: class"};
  }
  // Local scaled copy rather than a member scratch buffer: evaluate() in
  // deep_validator scores images concurrently through this method.
  std::vector<float> scaled(feature.begin(), feature.end());
  scaler_.transform_row(scaled);
  return -svms_[static_cast<std::size_t>(predicted_class)].decision(scaled);
}

std::vector<double> layer_validator_view::discrepancy_batch(
    const std::vector<std::int64_t>& predicted_classes,
    const tensor& features) const {
  if (!valid()) throw std::logic_error{"layer_validator: not fitted"};
  if (features.dim() != 2 ||
      static_cast<std::size_t>(features.extent(0)) !=
          predicted_classes.size()) {
    throw std::invalid_argument{"layer_validator::discrepancy_batch: bad inputs"};
  }
  const std::int64_t n = features.extent(0);
  const std::int64_t d = features.extent(1);
  // Batch scale, then group rows by predicted class so each class's SVM
  // sees one decision_batch call. scaler_view::transform applies
  // transform_row per row and decision_batch applies decision() per row,
  // so every output matches the per-row discrepancy() path bitwise.
  tensor scaled = features;
  scaler_.transform(scaled);
  std::vector<std::vector<std::int64_t>> per_class(svms_.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t pred = predicted_classes[static_cast<std::size_t>(i)];
    if (pred < 0 || pred >= static_cast<std::int64_t>(svms_.size())) {
      throw std::out_of_range{"layer_validator::discrepancy_batch: class"};
    }
    per_class[static_cast<std::size_t>(pred)].push_back(i);
  }
  std::vector<double> out(static_cast<std::size_t>(n));
  for (std::size_t k = 0; k < svms_.size(); ++k) {
    const auto& rows = per_class[k];
    if (rows.empty()) continue;
    tensor subset{{static_cast<std::int64_t>(rows.size()), d}};
    for (std::size_t j = 0; j < rows.size(); ++j) {
      std::copy_n(scaled.data() + rows[j] * d, d,
                  subset.data() + static_cast<std::int64_t>(j) * d);
    }
    const std::vector<double> dec = svms_[k].decision_batch(subset);
    for (std::size_t j = 0; j < rows.size(); ++j) {
      out[static_cast<std::size_t>(rows[j])] = -dec[j];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serialization: flat snapshot sections.

void layer_validator::save_snapshot(snapshot_writer& w,
                                    const std::string& prefix) const {
  if (!fitted()) {
    throw std::logic_error{"layer_validator::save_snapshot: not fitted"};
  }
  const std::int64_t meta_i[1] = {static_cast<std::int64_t>(svms_.size())};
  w.add_i64(prefix + "meta_i", meta_i);
  scaler_.save_snapshot(w, prefix + "scaler/");
  for (std::size_t k = 0; k < svms_.size(); ++k) {
    svms_[k].save_snapshot(w, prefix + "c" + std::to_string(k) + "/");
  }
}

layer_validator_view layer_validator_view::from_snapshot(
    const snapshot_view& snap, const std::string& prefix) {
  const auto meta_i = snap.i64(prefix + "meta_i");
  if (meta_i.size() != 1 || meta_i[0] < 1) {
    throw serialize_error{"snapshot layer '" + prefix + "': bad metadata"};
  }
  const auto classes = static_cast<std::size_t>(meta_i[0]);
  const scaler_view scaler =
      scaler_view::from_snapshot(snap, prefix + "scaler/");
  std::vector<one_class_svm_view> svms;
  svms.reserve(classes);
  for (std::size_t k = 0; k < classes; ++k) {
    svms.push_back(one_class_svm_view::from_snapshot(
        snap, prefix + "c" + std::to_string(k) + "/"));
  }
  return layer_validator_view{scaler, std::move(svms)};
}

layer_validator layer_validator::load_snapshot(const snapshot_view& snap,
                                               const std::string& prefix) {
  const auto meta_i = snap.i64(prefix + "meta_i");
  if (meta_i.size() != 1 || meta_i[0] < 1) {
    throw serialize_error{"snapshot layer '" + prefix + "': bad metadata"};
  }
  const auto classes = static_cast<std::size_t>(meta_i[0]);
  layer_validator out;
  out.scaler_ = feature_scaler::load_snapshot(snap, prefix + "scaler/");
  out.svms_.reserve(classes);
  for (std::size_t k = 0; k < classes; ++k) {
    out.svms_.push_back(one_class_svm::load_snapshot(
        snap, prefix + "c" + std::to_string(k) + "/"));
  }
  return out;
}

}  // namespace dv
