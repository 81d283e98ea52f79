// Per-dimension standardization of probe features.
//
// Fitted on the training features of one layer; applied to every test
// feature before the SVM kernel so that the RBF width heuristic is
// well-conditioned across layers with very different activation scales.
//
// Split into builder and view (DESIGN.md §16): `feature_scaler` owns the
// fitted statistics; `scaler_view` borrows them — from the builder or from
// a loaded snapshot (util/flat_snapshot.h) — and carries the single
// transform implementation both paths share.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace dv {

class snapshot_view;
class snapshot_writer;

/// Read-only standardization over borrowed mean / inverse-std rows; valid
/// while the owner (a feature_scaler or an open snapshot_view) is alive.
class scaler_view {
 public:
  scaler_view() = default;
  /// Borrows `mean` and `inv_std` (equal length d).
  scaler_view(std::span<const float> mean, std::span<const float> inv_std);

  /// Reads the sections written by feature_scaler::save_snapshot under
  /// `prefix`; spans stay inside the snapshot (zero copy).
  static scaler_view from_snapshot(const snapshot_view& snap,
                                   const std::string& prefix);

  /// Standardizes a matrix in place.
  void transform(tensor& features) const;
  /// Standardizes one row vector in place.
  void transform_row(std::span<float> row) const;

  bool valid() const { return !mean_.empty(); }
  std::int64_t dimension() const {
    return static_cast<std::int64_t>(mean_.size());
  }
  std::span<const float> mean() const { return mean_; }
  std::span<const float> inv_std() const { return inv_std_; }

 private:
  std::span<const float> mean_;
  std::span<const float> inv_std_;
};

class feature_scaler {
 public:
  /// Computes mean and standard deviation per column of [n, d].
  void fit(const tensor& features);

  /// Standardizes a matrix in place.
  void transform(tensor& features) const;

  /// Standardizes one row vector in place.
  void transform_row(std::span<float> row) const;

  /// Read-only view over the owned statistics; valid while this object is
  /// alive and unmodified.
  scaler_view view() const { return scaler_view{mean_, inv_std_}; }

  bool fitted() const { return !mean_.empty(); }
  std::int64_t dimension() const {
    return static_cast<std::int64_t>(mean_.size());
  }

  /// Writes the fitted statistics as snapshot sections named `prefix` +
  /// {mean, istd} (docs/SNAPSHOTS.md).
  void save_snapshot(snapshot_writer& w, const std::string& prefix) const;
  /// Materializes an owned scaler from snapshot sections.
  static feature_scaler load_snapshot(const snapshot_view& snap,
                                      const std::string& prefix);

 private:
  std::vector<float> mean_;
  std::vector<float> inv_std_;
};

}  // namespace dv
