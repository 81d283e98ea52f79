// Weighted joint validator — the paper's stated extension (§III-B2: "we can
// further explore it since better combination can lead to more precise
// estimation", §IV-D3: "can be improved via carefully assigning different
// weights to different single validators").
//
// Learns per-layer weights for the discrepancy combination with a logistic
// regression. To stay scenario-agnostic (the paper's core design rule), the
// positive class defaults to uniform-noise outlier images, which require no
// knowledge of any corner-case scenario.
//
// Scoring delegates to core/validator_bank.h's weighted_joint_view (the
// read-only half, also constructible zero-copy from a snapshot), so fitted
// and snapshot-backed weighted scores share one code path.
#pragma once

#include "core/deep_validator.h"
#include "nn/logistic.h"

namespace dv {

class weighted_joint_validator {
 public:
  /// Fits weights from the per-layer discrepancies of `clean` (negatives)
  /// and `outliers` (positives) under the fitted `base` validator.
  void fit(sequential& model, const deep_validator& base, const tensor& clean,
           const tensor& outliers);

  /// Weighted joint discrepancy scores for a batch.
  std::vector<double> score_batch(sequential& model,
                                  const deep_validator& base,
                                  const tensor& images) const;

  /// Read-only view over the learned weights; valid while this object is
  /// alive and unmodified. Requires a fitted combiner.
  weighted_joint_view view() const;

  bool fitted() const { return combiner_.fitted(); }
  /// Learned per-layer weights (one per validated layer).
  const std::vector<double>& weights() const { return combiner_.weights(); }
  double bias() const { return combiner_.bias(); }

  /// Writes the learned weights as snapshot sections named `prefix` +
  /// {weights, bias} (docs/SNAPSHOTS.md); read back zero-copy by
  /// weighted_joint_view::from_snapshot.
  void save_snapshot(snapshot_writer& w, const std::string& prefix) const;

  /// Generates scenario-agnostic outliers: uniform-noise images of the
  /// given shape.
  static tensor make_noise_outliers(const std::vector<std::int64_t>& shape,
                                    std::uint64_t seed);

 private:
  logistic_regression combiner_;
};

}  // namespace dv
