#include "detect/lid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/activation_batch.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dv {

namespace {

/// Reduced probe features of a batch for every probe layer.
std::vector<tensor> reduced_probes(const sequential& model,
                                   const tensor& images, int spatial) {
  const activation_batch acts = extract_activations(model, images, spatial);
  std::vector<tensor> out;
  out.reserve(acts.probes.size());
  for (int p = 0; p < acts.probe_count(); ++p) {
    out.push_back(acts.probe_features(p, spatial));
  }
  return out;
}

/// Maximum-likelihood LID estimate from k nearest-neighbor distances.
double lid_estimate(const float* x, const tensor& reference, int k) {
  const std::int64_t m = reference.extent(0);
  const std::int64_t d = reference.extent(1);
  std::vector<double> dist(static_cast<std::size_t>(m));
  squared_distance_row(x, reference.data(), m, d, dist.data());
  const auto kk = static_cast<std::size_t>(
      std::min<std::int64_t>(k, m - 1));
  std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(kk),
                    dist.end());
  const double rk = std::sqrt(std::max(dist[kk - 1], 1e-24));
  double acc = 0.0;
  for (std::size_t i = 0; i < kk; ++i) {
    const double ri = std::sqrt(std::max(dist[i], 1e-24));
    acc += std::log(std::max(ri / rk, 1e-12));
  }
  if (acc >= -1e-12) return 1e6;  // all neighbors coincide: degenerate
  return -static_cast<double>(kk) / acc;
}

}  // namespace

lid_detector::lid_detector(const sequential& model, const dataset& train,
                           const tensor& positives, const tensor& negatives,
                           const lid_config& config)
    : model_{model}, config_{config} {
  // Reference batch: random clean training images.
  rng gen{config.seed};
  const auto ref_rows = sample_indices(
      train.size(), std::min(config.reference_size, train.size()), gen);
  const dataset ref = train.subset(ref_rows);
  // Extract reduced reference features layer by layer (single pass).
  constexpr std::int64_t batch = 128;
  for (std::int64_t begin = 0; begin < ref.size(); begin += batch) {
    const std::int64_t end = std::min(ref.size(), begin + batch);
    auto feats = reduced_probes(model_, ref.images.slice_rows(begin, end),
                                config.spatial);
    if (reference_.empty()) {
      reference_.resize(feats.size());
      for (std::size_t l = 0; l < feats.size(); ++l) {
        reference_[l] = tensor{{ref.size(), feats[l].extent(1)}};
      }
    }
    for (std::size_t l = 0; l < feats.size(); ++l) {
      std::copy_n(feats[l].data(), feats[l].numel(),
                  reference_[l].data() + begin * feats[l].extent(1));
    }
  }

  // Train the logistic combiner on LID features of knowns.
  auto pos_feats = lid_features(positives);
  auto neg_feats = lid_features(negatives);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (auto& f : pos_feats) {
    x.push_back(std::move(f));
    y.push_back(1);
  }
  for (auto& f : neg_feats) {
    x.push_back(std::move(f));
    y.push_back(0);
  }
  combiner_.fit(x, y);
  log_debug() << "lid: " << reference_.size() << " layers, combiner fitted on "
              << x.size() << " examples";
}

std::vector<std::vector<double>> lid_detector::lid_features(
    const tensor& images) {
  const std::int64_t n = images.extent(0);
  std::vector<std::vector<double>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t begin = 0; begin < n; begin += config_.batch.max_batch) {
    const std::int64_t end =
        std::min<std::int64_t>(n, begin + config_.batch.max_batch);
    auto rows = lid_rows(extract_activations(
        model_, images.slice_rows(begin, end), config_.spatial));
    for (auto& row : rows) out.push_back(std::move(row));
  }
  return out;
}

std::vector<std::vector<double>> lid_detector::lid_rows(
    const activation_batch& acts) {
  const std::int64_t n = acts.size();
  std::vector<std::vector<double>> out(static_cast<std::size_t>(n));
  for (int l = 0; l < acts.probe_count(); ++l) {
    const tensor feat = acts.probe_features(l, config_.spatial);
    const std::int64_t d = feat.extent(1);
    for (std::int64_t i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)].push_back(
          lid_estimate(feat.data() + i * d,
                       reference_[static_cast<std::size_t>(l)],
                       config_.neighbors));
    }
  }
  return out;
}

double lid_detector::score(const tensor& image) {
  tensor batch = image.reshaped(
      {1, image.extent(0), image.extent(1), image.extent(2)});
  return score_batch(batch).front();
}

std::vector<double> lid_detector::do_score_batch(const tensor& images) {
  const auto feats = lid_features(images);
  std::vector<double> out;
  out.reserve(feats.size());
  for (const auto& row : feats) out.push_back(combiner_.decision(row));
  return out;
}

}  // namespace dv
