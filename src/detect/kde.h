// Kernel density estimation detector (Feinman et al., 2017), the paper's
// statistical-detection baseline (Table VII).
//
// Gaussian KDE is fit on the penultimate-layer (last hidden probe) features
// of correctly classified training images, conditioned on the class. The
// anomaly score of a test image is the negative log kernel density under
// the KDE of its *predicted* class.
#pragma once

#include <cstdint>
#include <vector>

#include "core/activation_batch.h"
#include "core/batch_config.h"
#include "data/dataset.h"
#include "detect/detector.h"
#include "nn/model.h"

namespace dv {

struct kde_config {
  /// Gaussian bandwidth sigma; <= 0 selects the median-heuristic bandwidth
  /// (median pairwise distance within each class).
  double bandwidth{0.0};
  /// Per-class cap on stored training features.
  std::int64_t max_train_per_class{400};
  std::uint64_t seed{13};
  batch_config batch{};
};

class kde_detector : public anomaly_detector {
 public:
  /// Fits on the training set; `model` must outlive the detector.
  kde_detector(const sequential& model, const dataset& train,
               const kde_config& config);

  double score(const tensor& image) override;
  std::vector<double> do_score_batch(const tensor& images) override;
  std::string name() const override { return "kernel_density"; }

  double bandwidth(int cls) const {
    return bandwidth_[static_cast<std::size_t>(cls)];
  }

 private:
  /// Scores of one already-extracted activation batch.
  std::vector<double> score_extracted(const activation_batch& acts) const;

  const sequential& model_;
  batch_config batch_;
  std::vector<tensor> class_features_;  // per class [n_k, d]
  std::vector<double> bandwidth_;       // per class sigma
};

}  // namespace dv
