// Feature squeezing detector (Xu, Evans, Qi — NDSS 2018), the paper's main
// prediction-inconsistency baseline (Table VII and VIII).
//
// The detector compares the model's softmax output on the original input
// with its outputs on squeezed variants; the score is the maximum L1
// distance over squeezers. Legitimate inputs are insensitive to squeezing;
// adversarial inputs (and, as the paper shows, far fewer real-world corner
// cases than expected) move significantly.
#pragma once

#include <memory>

#include "detect/detector.h"
#include "detect/squeezers.h"
#include "nn/model.h"

namespace dv {

class feature_squeezing_detector : public anomaly_detector {
 public:
  /// `model` must outlive the detector.
  feature_squeezing_detector(sequential& model,
                             std::vector<std::unique_ptr<squeezer>> squeezers);

  /// The per-dataset squeezer banks used in the original paper:
  /// greyscale (MNIST-like): 1-bit depth + 2x2 median;
  /// color: 5-bit depth + 2x2 median + 3x3 mean (for non-local means).
  static std::vector<std::unique_ptr<squeezer>> standard_bank(bool greyscale);

  double score(const tensor& image) override;
  std::vector<double> do_score_batch(const tensor& images) override;
  std::string name() const override { return "feature_squeezing"; }

 private:
  sequential& model_;
  std::vector<std::unique_ptr<squeezer>> squeezers_;
};

}  // namespace dv
