// Single validator: the set of per-class one-class SVMs of one probe layer
// (paper §III-B2, Algorithm 1 inner loop, and the "Single Validator" rows of
// Table VI).
//
// Split into builder and view (DESIGN.md §16): `layer_validator` owns the
// fitted scaler and SVMs; `layer_validator_view` borrows their storage —
// from the builder or from a loaded snapshot — and carries the single
// discrepancy implementation both paths share.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/feature_scaler.h"
#include "svm/one_class_svm.h"

namespace dv {

/// Read-only discrepancy scoring over one probe layer: a scaler view plus
/// one SVM view per class. Valid while the owner (a layer_validator or an
/// open snapshot_view) is alive.
class layer_validator_view {
 public:
  layer_validator_view() = default;
  layer_validator_view(scaler_view scaler,
                       std::vector<one_class_svm_view> svms);

  /// Reads the sections written by layer_validator::save_snapshot under
  /// `prefix`; SVM matrices stay inside the snapshot (zero copy).
  static layer_validator_view from_snapshot(const snapshot_view& snap,
                                            const std::string& prefix);

  /// Discrepancy d_i = -t_{y'}(feature) (Equation 2). `feature` is the raw
  /// (reduced, unscaled) probe vector; scaling happens internally.
  double discrepancy(std::int64_t predicted_class,
                     std::span<const float> feature) const;

  /// Discrepancies for all rows of `features` [n, d] with per-row
  /// predicted classes — bit-identical to calling discrepancy() per row.
  /// Rows are grouped by predicted class and scored through
  /// one_class_svm_view::decision_batch, which parallelizes over rows.
  std::vector<double> discrepancy_batch(
      const std::vector<std::int64_t>& predicted_classes,
      const tensor& features) const;

  bool valid() const { return !svms_.empty(); }
  int num_classes() const { return static_cast<int>(svms_.size()); }
  std::int64_t dimension() const { return scaler_.dimension(); }
  const scaler_view& scaler() const { return scaler_; }
  const std::vector<one_class_svm_view>& svms() const { return svms_; }

 private:
  scaler_view scaler_;
  std::vector<one_class_svm_view> svms_;
};

class layer_validator {
 public:
  /// Fits one SVM per class on the rows of `features` [n, d] whose label in
  /// `labels` equals that class. Every class must have at least 2 samples.
  void fit(const tensor& features, const std::vector<std::int64_t>& labels,
           int num_classes, const one_class_svm_config& config);

  /// Discrepancy d_i = -t_{y'}(feature) (Equation 2). `feature` is the raw
  /// (reduced, unscaled) probe vector; scaling happens internally.
  /// Thread-safe: concurrent calls on one fitted validator are allowed.
  double discrepancy(std::int64_t predicted_class,
                     std::span<const float> feature) const;

  /// Discrepancies for all rows of `features` [n, d] with per-row
  /// predicted classes — bit-identical to calling discrepancy() per row.
  /// Delegates to layer_validator_view::discrepancy_batch; concurrent
  /// calls on one fitted validator are allowed.
  std::vector<double> discrepancy_batch(
      const std::vector<std::int64_t>& predicted_classes,
      const tensor& features) const;

  /// Read-only view over the owned storage. Valid while this object is
  /// alive and unmodified; requires a fitted validator.
  layer_validator_view view() const;

  bool fitted() const { return !svms_.empty(); }
  int num_classes() const { return static_cast<int>(svms_.size()); }
  std::int64_t dimension() const { return scaler_.dimension(); }

  /// Writes the fitted state as snapshot sections under `prefix`:
  /// scaler/{mean,istd}, meta_i, and c<k>/... per class
  /// (docs/SNAPSHOTS.md).
  void save_snapshot(snapshot_writer& w, const std::string& prefix) const;
  /// Materializes an owned (refit-able) validator from snapshot sections.
  static layer_validator load_snapshot(const snapshot_view& snap,
                                       const std::string& prefix);

 private:
  feature_scaler scaler_;
  std::vector<one_class_svm> svms_;
};

}  // namespace dv
