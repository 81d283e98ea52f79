// Mahalanobis-distance detector (Lee et al., NeurIPS 2018), an additional
// statistical baseline beyond the paper's Table VII.
//
// Fits class-conditional Gaussians with a tied covariance on the
// penultimate-layer (last probe) features of correctly classified training
// images. The anomaly score of a test input is the minimum squared
// Mahalanobis distance over classes (the basic, single-layer variant of Lee
// et al. without input preprocessing).
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation_batch.h"
#include "core/batch_config.h"
#include "data/dataset.h"
#include "detect/detector.h"
#include "nn/model.h"

namespace dv {

struct mahalanobis_config {
  std::int64_t max_train_per_class{400};
  double ridge{1e-2};  // covariance shrinkage toward the identity
  std::uint64_t seed{19};
  batch_config batch{};
};

class mahalanobis_detector : public anomaly_detector {
 public:
  mahalanobis_detector(const sequential& model, const dataset& train,
                       const mahalanobis_config& config);

  double score(const tensor& image) override;
  std::vector<double> do_score_batch(const tensor& images) override;
  std::string name() const override { return "mahalanobis"; }

  int num_classes() const { return static_cast<int>(means_.size()); }

 private:
  /// Scores of one already-extracted activation batch.
  std::vector<double> score_extracted(const activation_batch& acts) const;

  const sequential& model_;
  batch_config batch_;
  std::vector<std::vector<double>> means_;  // per class
  std::vector<double> chol_;                // tied covariance factor [d, d]
  std::int64_t dim_{0};
};

}  // namespace dv
