#include "detect/feature_squeeze.h"

#include <algorithm>
#include <cmath>

#include "nn/trainer.h"
#include "tensor/ops.h"

namespace dv {

feature_squeezing_detector::feature_squeezing_detector(
    sequential& model, std::vector<std::unique_ptr<squeezer>> squeezers)
    : model_{model}, squeezers_{std::move(squeezers)} {}

std::vector<std::unique_ptr<squeezer>>
feature_squeezing_detector::standard_bank(bool greyscale) {
  std::vector<std::unique_ptr<squeezer>> out;
  if (greyscale) {
    out.push_back(std::make_unique<bit_depth_squeezer>(1));
    out.push_back(std::make_unique<median_squeezer>(2));
  } else {
    out.push_back(std::make_unique<bit_depth_squeezer>(5));
    out.push_back(std::make_unique<median_squeezer>(2));
    out.push_back(std::make_unique<mean_squeezer>(3));
  }
  return out;
}

double feature_squeezing_detector::score(const tensor& image) {
  tensor batch = image.reshaped(
      {1, image.extent(0), image.extent(1), image.extent(2)});
  return score_batch(batch).front();
}

std::vector<double> feature_squeezing_detector::do_score_batch(
    const tensor& images) {
  // Max L1 distance between the softmax of each image and of its squeezed
  // variants.
  const tensor base = batched_probabilities(model_, images);
  const std::int64_t n = images.extent(0);
  const std::int64_t c = base.extent(1);
  std::vector<double> best(static_cast<std::size_t>(n), 0.0);
  for (const auto& sq : squeezers_) {
    tensor squeezed{images.shape()};
    for (std::int64_t i = 0; i < n; ++i) {
      squeezed.set_sample(i, sq->apply(images.sample(i)));
    }
    const tensor probs = batched_probabilities(model_, squeezed);
    for (std::int64_t i = 0; i < n; ++i) {
      const double l1 =
          l1_distance(base.data() + i * c, probs.data() + i * c, c);
      auto& slot = best[static_cast<std::size_t>(i)];
      slot = std::max(slot, l1);
    }
  }
  return best;
}

}  // namespace dv
