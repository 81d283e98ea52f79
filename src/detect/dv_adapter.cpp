#include "detect/dv_adapter.h"

namespace dv {

double deep_validation_detector::score(const tensor& image) {
  return validator_.joint_discrepancy(model_, image);
}

std::vector<double> deep_validation_detector::do_score_batch(
    const tensor& images) {
  return validator_.evaluate(model_, images).joint;
}

}  // namespace dv
