// Deep Validation: the paper's primary contribution (Figure 1, Algorithms 1
// and 2).
//
// A deep_validator attaches probes to every hidden layer of a trained CNN,
// models the per-(layer, class) reference distributions of training hidden
// representations with one-class SVMs, and at inference time scores a test
// image by its joint discrepancy d = sum_i d_i across validated layers.
// Inputs whose joint discrepancy exceeds a threshold epsilon are flagged as
// error-inducing corner cases.
//
// deep_validator is the mutable BUILDER (fit/refit/threshold); scoring is
// implemented once in core/validator_bank.h's validator_bank_view, which
// this class delegates to via bank(). save_snapshot()/load_snapshot()
// round-trip through the flat snapshot format (docs/SNAPSHOTS.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/activation_batch.h"
#include "core/batch_config.h"
#include "core/layer_validator.h"
#include "core/validator_bank.h"
#include "data/dataset.h"
#include "nn/model.h"

namespace dv {

class weighted_joint_validator;

struct deep_validator_config {
  one_class_svm_config svm;
  /// Spatial resolution of the convolutional probe reducer (1 = GAP).
  int spatial{1};
  /// If > 0, validate only the last `last_probes` probe layers (the paper's
  /// DenseNet configuration validates the last six).
  int last_probes{0};
  /// Per-class cap on SVM training samples (subsampled deterministically).
  std::int64_t max_train_per_class{500};
  std::uint64_t seed{7};
  /// Shared batching knob for fit and evaluate (core/batch_config.h).
  batch_config batch{};
};

class deep_validator {
 public:
  deep_validator() = default;

  /// Algorithm 1 in one inference pass over `train`: each image's
  /// prediction decides whether it is kept (misclassified images are
  /// removed), and the kept images' reduced hidden representations fit
  /// the per-(layer, class) one-class SVMs. Throws std::invalid_argument
  /// on settings no bank can run with (bank_settings_error).
  void fit(const sequential& model, const dataset& train,
           const deep_validator_config& config);

  /// Per-image evaluation outputs (see core/validator_bank.h).
  using scores = validation_scores;

  /// Algorithm 2 over a batch of images: chunks by the configured batch
  /// size, extracting activations once per chunk. A frame holding a NaN
  /// or an infinity gets a joint of +inf; a malformed tensor throws
  /// std::invalid_argument (validator_bank_view::evaluate).
  scores evaluate(const sequential& model, const tensor& images) const;

  /// Joint discrepancy of a single [C,H,W] image; +inf when the image
  /// holds a NaN or an infinity.
  double joint_discrepancy(const sequential& model,
                           const tensor& image) const;

  /// Read-only bank view over the owned storage — the scoring surface
  /// this class delegates to. Valid while this object is alive and
  /// unmodified; requires a fitted validator.
  validator_bank_view bank() const;

  /// Batching configuration captured at fit time.
  const batch_config& batching() const { return batch_; }

  /// Number of validated layers.
  int validated_layers() const {
    return static_cast<int>(validators_.size());
  }
  /// Global probe index (0-based, network order) of validated layer `i`.
  int probe_index(int i) const {
    return probe_indices_[static_cast<std::size_t>(i)];
  }

  /// Decision threshold epsilon; images with joint discrepancy > epsilon are
  /// flagged invalid, and so is a NaN joint (fail closed).
  void set_threshold(double epsilon) { threshold_ = epsilon; }
  double threshold() const { return threshold_; }
  bool flags_invalid(double joint_d) const {
    return !(joint_d <= threshold_);
  }

  bool fitted() const { return !validators_.empty(); }

  /// Writes the fitted bank as a flat snapshot (docs/SNAPSHOTS.md).
  /// `weighted`, when non-null and fitted, embeds the weighted-joint
  /// combiner so snapshot-backed banks can serve weighted scores.
  void save_snapshot(const std::string& path,
                     const weighted_joint_validator* weighted = nullptr) const;
  /// Materializes an owned (refit-able) validator from a snapshot file.
  /// For zero-copy serving use validator_bank_view::from_snapshot.
  static deep_validator load_snapshot(const std::string& path);

 private:
  std::vector<layer_validator> validators_;
  std::vector<int> probe_indices_;
  int spatial_{1};
  batch_config batch_{};
  double threshold_{0.0};
};

}  // namespace dv
