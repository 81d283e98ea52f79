// Local Intrinsic Dimensionality detector (Ma et al., ICLR 2018), a second
// statistical baseline beyond the paper's Table VII.
//
// For every probe layer, the LID of a test input is estimated from its k
// nearest neighbors within a reference batch of clean training features:
//   LID(x) = -( (1/k) * sum_i log( r_i(x) / r_k(x) ) )^{-1}.
// A logistic regression over the per-layer LID vector is trained to
// separate clean inputs from *known* anomalies (FGSM adversarials in Ma et
// al.). The paper (§II-C) points out that detectors of this family need
// anomalous training data and generalize poorly to unseen anomaly types —
// this implementation lets the Table VII bench demonstrate exactly that
// generalization gap on real-world corner cases.
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation_batch.h"
#include "core/batch_config.h"
#include "data/dataset.h"
#include "detect/detector.h"
#include "nn/logistic.h"
#include "nn/model.h"

namespace dv {

struct lid_config {
  int neighbors{20};
  /// Size of the clean reference batch per layer.
  std::int64_t reference_size{256};
  /// Probe reducer resolution for convolutional layers (as in core).
  int spatial{1};
  std::uint64_t seed{29};
  batch_config batch{};
};

class lid_detector : public anomaly_detector {
 public:
  /// `train` provides the reference features; `positives` are the known
  /// anomalous images the combiner is trained on (e.g. FGSM adversarials);
  /// `negatives` are clean images for the combiner.
  lid_detector(const sequential& model, const dataset& train,
               const tensor& positives, const tensor& negatives,
               const lid_config& config);

  double score(const tensor& image) override;
  std::vector<double> do_score_batch(const tensor& images) override;
  std::string name() const override { return "lid"; }

  int layers() const { return static_cast<int>(reference_.size()); }

  /// Per-layer LID estimates of a batch (rows: images, cols: layers).
  std::vector<std::vector<double>> lid_features(const tensor& images);

 private:
  /// LID rows of one already-extracted activation batch.
  std::vector<std::vector<double>> lid_rows(const activation_batch& acts);

  const sequential& model_;
  lid_config config_;
  std::vector<tensor> reference_;  // per layer [m, d] reduced clean features
  logistic_regression combiner_;
};

}  // namespace dv
