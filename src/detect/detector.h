// Common interface for runtime anomaly detectors.
//
// A detector maps an input image to a real-valued anomaly score — higher
// means more likely to be an error-inducing input. Thresholding the score
// yields the binary valid/invalid decision; the evaluation toolkit computes
// ROC-AUC directly from the scores.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/model.h"
#include "tensor/tensor.h"

namespace dv {

class anomaly_detector {
 public:
  virtual ~anomaly_detector() = default;
  anomaly_detector() = default;
  anomaly_detector(const anomaly_detector&) = delete;
  anomaly_detector& operator=(const anomaly_detector&) = delete;

  /// Anomaly score of one [C,H,W] image (higher = more anomalous).
  virtual double score(const tensor& image) = 0;

  /// Scores a batch [N,C,H,W]. Non-virtual: records per-detector batch
  /// timing and image counts into the metrics registry (when DV_METRICS
  /// is on), then delegates to do_score_batch().
  std::vector<double> score_batch(const tensor& images);

  virtual std::string name() const = 0;

 protected:
  /// Batch implementation; the default loops over score(). Detectors with
  /// cheaper batched paths override this.
  virtual std::vector<double> do_score_batch(const tensor& images);
};

/// What the KDE and Mahalanobis detectors fit on, from ONE inference pass
/// over a training set: every image's last-probe features and, per class,
/// the images the model classifies correctly (the paper's Algorithm-1
/// filtering convention), in ascending row order.
struct correct_train_features {
  /// Last probe flattened, [N, d] for all N training images.
  tensor features;
  /// Per class: rows of correctly classified images.
  std::vector<std::vector<std::int64_t>> correct;
};
correct_train_features extract_correct_train_features(const sequential& model,
                                                      const dataset& train);

/// Records per-detector confusion counters into the metrics registry
/// (dv_detector_{true,false}_{positives,negatives}_total{detector="..."},
/// plus the derived dv_detector_tpr / dv_detector_fpr gauges) from scored
/// anomalous / clean populations and a decision threshold (score >=
/// threshold flags the input). No-op when metrics are disabled.
void record_detection_counts(const std::string& detector,
                             const std::vector<double>& anomalous_scores,
                             const std::vector<double>& clean_scores,
                             double threshold);

}  // namespace dv
