// The validator bank view: the read-only scoring half of Deep Validation
// (DESIGN.md §16, docs/SNAPSHOTS.md).
//
// A validator_bank_view is everything inference needs from a fitted
// deep_validator — per-layer validators, probe indices, the decision
// threshold, the batching knob, and (optionally) the weighted-joint
// combiner — borrowed either from a live deep_validator (via
// deep_validator::bank()) or zero-copy out of a loaded flat snapshot
// (util/flat_snapshot.h). Both construction paths run the SAME scoring
// code, so a snapshot-backed bank is bitwise identical to the fitted
// in-memory bank for any DV_THREADS / DV_SIMD / DV_CACHE setting.
//
// Banks are immutable after construction and cheap to copy (views +
// small owned vectors). The serving layer publishes them through
// serve/engine_handle.h for pause-free hot swap.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/activation_batch.h"
#include "core/batch_config.h"
#include "core/layer_validator.h"
#include "nn/model.h"
#include "util/flat_snapshot.h"

namespace dv {

/// Per-image outputs of one bank evaluation (formerly
/// deep_validator::scores, which is now an alias of this).
struct validation_scores {
  /// Per validated layer (outer) and per image (inner) discrepancy d_i.
  std::vector<std::vector<double>> per_layer;
  /// Joint discrepancy d = sum_i d_i per image (Equation 3).
  std::vector<double> joint;
  /// Model prediction per image.
  std::vector<std::int64_t> predictions;
};

/// Why a bank cannot run with reducer resolution `spatial` and batch size
/// `max_batch`, or nullptr when it can: spatial < 1 has no reducer grid,
/// and max_batch < 1 would never advance the chunked loops of fit and
/// evaluate. deep_validator::fit and every bank loader check it.
const char* bank_settings_error(int spatial, int max_batch);

/// The header sections of a bank snapshot (docs/SNAPSHOTS.md).
struct bank_snapshot_header {
  int spatial{1};
  batch_config batch{};
  double threshold{0.0};
  /// Global probe index of each validated layer.
  std::vector<int> probes;
};

/// Reads and checks the header shared by validator_bank_view::from_snapshot
/// and deep_validator::load_snapshot. Throws serialize_error on a missing,
/// unsupported or inconsistent header, on bad bank settings, or when any
/// f32/f64 section of the bank (support vectors, alpha, gamma/rho, scaler
/// rows, weighted weights, threshold) holds a NaN or an infinity.
bank_snapshot_header read_bank_header(const snapshot_view& snap);

/// Read-only weighted-joint combiner: the linear decision w^T x + b over
/// per-layer discrepancies, borrowed from a fitted
/// weighted_joint_validator or a snapshot. The decision loop here IS the
/// shared implementation — the builder delegates to it — so owned and
/// snapshot-backed weighted scores are bitwise identical.
class weighted_joint_view {
 public:
  weighted_joint_view() = default;
  weighted_joint_view(std::span<const double> weights, double bias);

  /// Reads the sections written by weighted_joint_validator::save_snapshot
  /// under `prefix` (zero copy).
  static weighted_joint_view from_snapshot(const snapshot_view& snap,
                                           const std::string& prefix);

  /// Linear score w^T x + b over one image's per-layer discrepancies —
  /// the same summation order as logistic_regression::decision.
  double decision(std::span<const double> per_layer_row) const;

  bool valid() const { return !weights_.empty(); }
  std::span<const double> weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  std::span<const double> weights_;
  double bias_{0.0};
};

/// Read-only scoring surface over one fitted validator bank; see the file
/// comment for the ownership model. Valid while the storage owner is
/// alive: for snapshot-backed banks the view keeps the snapshot alive via
/// shared_ptr, for builder-backed banks the deep_validator must outlive
/// the view.
class validator_bank_view {
 public:
  validator_bank_view() = default;
  validator_bank_view(std::vector<layer_validator_view> layers,
                      std::vector<int> probe_indices, int spatial,
                      batch_config batch, double threshold,
                      weighted_joint_view weighted = {},
                      std::shared_ptr<const snapshot_view> snap = nullptr);

  /// Zero-copy bank over a validated snapshot: the support-vector
  /// matrices, scaler rows, and weights stay inside the snapshot image,
  /// which the returned bank keeps alive. Throws serialize_error on any
  /// missing, inconsistent or non-finite section.
  static validator_bank_view from_snapshot(
      std::shared_ptr<const snapshot_view> snap);

  /// Algorithm 2 over pre-extracted activations — the batch-first entry
  /// point shared with the detectors and the serving layer.
  validation_scores evaluate(const activation_batch& acts) const;

  /// Algorithm 2 over raw images: chunks by the configured batch size,
  /// extracting activations once per chunk.
  validation_scores evaluate(const sequential& model,
                             const tensor& images) const;

  /// Scores `acts` into out.{per_layer,joint,predictions} rows
  /// [base, base + acts.size()).
  void score_into(const activation_batch& acts, validation_scores& out,
                  std::int64_t base) const;

  bool valid() const { return !layers_.empty(); }
  int validated_layers() const { return static_cast<int>(layers_.size()); }
  /// Global probe index (0-based, network order) of validated layer `i`.
  int probe_index(int i) const {
    return probe_indices_[static_cast<std::size_t>(i)];
  }
  int spatial() const { return spatial_; }
  const batch_config& batching() const { return batch_; }
  double threshold() const { return threshold_; }
  /// joint_d > epsilon, failing closed: a NaN joint is flagged invalid.
  bool flags_invalid(double joint_d) const {
    return !(joint_d <= threshold_);
  }
  const std::vector<layer_validator_view>& layers() const { return layers_; }
  /// The weighted combiner; weighted().valid() is false when the bank
  /// carries no weights.
  const weighted_joint_view& weighted() const { return weighted_; }
  /// The backing snapshot, or nullptr for builder-backed banks.
  const std::shared_ptr<const snapshot_view>& snapshot() const {
    return snap_;
  }

 private:
  std::vector<layer_validator_view> layers_;
  std::vector<int> probe_indices_;
  int spatial_{1};
  batch_config batch_{};
  double threshold_{0.0};
  weighted_joint_view weighted_;
  /// Keeps the snapshot image alive for snapshot-backed banks.
  std::shared_ptr<const snapshot_view> snap_;
};

}  // namespace dv
