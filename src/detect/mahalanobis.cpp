#include "detect/mahalanobis.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/activation_batch.h"
#include "tensor/linalg.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dv {

mahalanobis_detector::mahalanobis_detector(const sequential& model,
                                           const dataset& train,
                                           const mahalanobis_config& config)
    : model_{model}, batch_{config.batch} {
  rng gen{config.seed};

  // Correctly classified training rows per class and their features, from
  // one pass (Lee et al. fit on the training set; we match the paper's
  // Algorithm-1 filtering convention).
  correct_train_features fit_set =
      extract_correct_train_features(model, train);
  auto& per_class = fit_set.correct;

  means_.resize(per_class.size());
  tensor pooled_centered;  // all centered features for the tied covariance
  std::int64_t total_rows = 0;
  std::vector<tensor> class_feats(per_class.size());
  for (std::size_t k = 0; k < per_class.size(); ++k) {
    auto& rows = per_class[k];
    if (rows.size() < 2) {
      throw std::runtime_error{"mahalanobis_detector: class too small"};
    }
    gen.shuffle_indices(rows.size(), [&](std::size_t a, std::size_t b) {
      std::swap(rows[a], rows[b]);
    });
    if (config.max_train_per_class > 0 &&
        rows.size() > static_cast<std::size_t>(config.max_train_per_class)) {
      rows.resize(static_cast<std::size_t>(config.max_train_per_class));
    }
    tensor feats = fit_set.features.select_rows(rows);
    means_[k] = column_means(feats);
    class_feats[k] = std::move(feats);
    total_rows += class_feats[k].extent(0);
  }
  dim_ = class_feats[0].extent(1);

  // Tied covariance: average of within-class scatter.
  pooled_centered = tensor{{total_rows, dim_}};
  std::int64_t cursor = 0;
  for (std::size_t k = 0; k < class_feats.size(); ++k) {
    const tensor& f = class_feats[k];
    for (std::int64_t i = 0; i < f.extent(0); ++i) {
      float* dst = pooled_centered.data() + (cursor + i) * dim_;
      const float* src = f.data() + i * dim_;
      for (std::int64_t j = 0; j < dim_; ++j) {
        dst[j] = src[j] -
                 static_cast<float>(means_[k][static_cast<std::size_t>(j)]);
      }
    }
    cursor += f.extent(0);
  }
  const std::vector<double> zeros(static_cast<std::size_t>(dim_), 0.0);
  chol_ = covariance(pooled_centered, zeros, config.ridge);
  cholesky_decompose(chol_, dim_);
  log_debug() << "mahalanobis: d=" << dim_ << " rows=" << total_rows;
}

double mahalanobis_detector::score(const tensor& image) {
  tensor batch = image.reshaped(
      {1, image.extent(0), image.extent(1), image.extent(2)});
  return score_batch(batch).front();
}

std::vector<double> mahalanobis_detector::do_score_batch(const tensor& images) {
  const std::int64_t n = images.extent(0);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t begin = 0; begin < n; begin += batch_.max_batch) {
    const std::int64_t end = std::min<std::int64_t>(n, begin + batch_.max_batch);
    const auto part = score_extracted(
        extract_activations(model_, images.slice_rows(begin, end)));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::vector<double> mahalanobis_detector::score_extracted(
    const activation_batch& acts) const {
  const std::int64_t n = acts.size();
  const tensor feat = acts.last_probe_features();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    const std::span<const float> x{feat.data() + i * dim_,
                                   static_cast<std::size_t>(dim_)};
    for (const auto& mu : means_) {
      best = std::min(best, mahalanobis_squared(chol_, dim_, x, mu));
    }
    out.push_back(best);
  }
  return out;
}

}  // namespace dv
