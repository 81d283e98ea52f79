// Adapts the Deep Validation joint validator to the anomaly_detector
// interface so all detectors share one evaluation path.
#pragma once

#include "core/deep_validator.h"
#include "detect/detector.h"

namespace dv {

class deep_validation_detector : public anomaly_detector {
 public:
  /// Both references must outlive the detector.
  deep_validation_detector(sequential& model, const deep_validator& validator)
      : model_{model}, validator_{validator} {}

  double score(const tensor& image) override;
  std::vector<double> do_score_batch(const tensor& images) override;
  std::string name() const override { return "deep_validation"; }

 private:
  sequential& model_;
  const deep_validator& validator_;
};

}  // namespace dv
