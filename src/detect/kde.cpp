#include "detect/kde.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/activation_batch.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dv {

namespace {
double median_pairwise_distance(const tensor& features, rng& gen) {
  const std::int64_t n = features.extent(0);
  const std::int64_t d = features.extent(1);
  std::vector<double> dist;
  const std::int64_t pairs = std::min<std::int64_t>(2000, n * (n - 1) / 2);
  dist.reserve(static_cast<std::size_t>(pairs));
  for (std::int64_t k = 0; k < pairs; ++k) {
    const auto i = static_cast<std::int64_t>(gen.uniform_int(0, static_cast<int>(n - 1)));
    auto j = static_cast<std::int64_t>(gen.uniform_int(0, static_cast<int>(n - 2)));
    if (j >= i) ++j;
    dist.push_back(std::sqrt(
        squared_distance(features.data() + i * d, features.data() + j * d, d)));
  }
  auto mid = dist.begin() + static_cast<std::ptrdiff_t>(dist.size() / 2);
  std::nth_element(dist.begin(), mid, dist.end());
  return std::max(*mid, 1e-6);
}
}  // namespace

kde_detector::kde_detector(const sequential& model, const dataset& train,
                           const kde_config& config)
    : model_{model}, batch_{config.batch} {
  rng gen{config.seed};

  // Correctly classified training images per class and their features,
  // from one pass.
  correct_train_features fit_set =
      extract_correct_train_features(model, train);
  auto& per_class = fit_set.correct;

  class_features_.resize(per_class.size());
  bandwidth_.resize(per_class.size());
  for (std::size_t k = 0; k < per_class.size(); ++k) {
    auto& rows = per_class[k];
    if (rows.size() < 2) {
      throw std::runtime_error{"kde_detector: class with < 2 usable samples"};
    }
    gen.shuffle_indices(rows.size(), [&](std::size_t a, std::size_t b) {
      std::swap(rows[a], rows[b]);
    });
    if (config.max_train_per_class > 0 &&
        rows.size() > static_cast<std::size_t>(config.max_train_per_class)) {
      rows.resize(static_cast<std::size_t>(config.max_train_per_class));
    }
    tensor feats = fit_set.features.select_rows(rows);
    bandwidth_[k] = config.bandwidth > 0.0
                        ? config.bandwidth
                        : median_pairwise_distance(feats, gen);
    class_features_[k] = std::move(feats);
    log_debug() << "kde: class " << k << " n=" << rows.size() << " sigma="
                << bandwidth_[k];
  }
}

double kde_detector::score(const tensor& image) {
  tensor batch = image.reshaped(
      {1, image.extent(0), image.extent(1), image.extent(2)});
  return score_batch(batch).front();
}

std::vector<double> kde_detector::do_score_batch(const tensor& images) {
  const std::int64_t n = images.extent(0);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t begin = 0; begin < n; begin += batch_.max_batch) {
    const std::int64_t end = std::min<std::int64_t>(n, begin + batch_.max_batch);
    const auto part =
        score_extracted(extract_activations(model_, images.slice_rows(begin, end)));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::vector<double> kde_detector::score_extracted(
    const activation_batch& acts) const {
  const std::int64_t n = acts.size();
  const auto& preds = acts.predictions;
  const tensor feat = acts.last_probe_features();
  const std::int64_t d = feat.extent(1);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::size_t>(preds[static_cast<std::size_t>(i)]);
    const tensor& ref = class_features_[cls];
    const double inv_two_sigma2 =
        1.0 / (2.0 * bandwidth_[cls] * bandwidth_[cls]);
    const std::int64_t m = ref.extent(0);
    // log-sum-exp of -||x - x_i||^2 / (2 sigma^2), numerically stable.
    // All m squared distances batch through the SIMD row kernel (bitwise
    // identical to per-row squared_distance calls).
    std::vector<double> exps(static_cast<std::size_t>(m));
    squared_distance_row(feat.data() + i * d, ref.data(), m, d, exps.data());
    double max_e = -1e300;
    for (std::int64_t t = 0; t < m; ++t) {
      const double e = -exps[static_cast<std::size_t>(t)] * inv_two_sigma2;
      exps[static_cast<std::size_t>(t)] = e;
      max_e = std::max(max_e, e);
    }
    double acc = 0.0;
    for (const double e : exps) acc += std::exp(e - max_e);
    const double log_density =
        max_e + std::log(acc / static_cast<double>(m));
    out.push_back(-log_density);  // higher = less dense = more anomalous
  }
  return out;
}

}  // namespace dv
