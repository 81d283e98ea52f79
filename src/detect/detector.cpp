#include "detect/detector.h"

#include <algorithm>

#include "core/activation_batch.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dv {

namespace {
std::string labeled(const char* base, const std::string& detector) {
  return std::string{base} + "{detector=\"" + detector + "\"}";
}
}  // namespace

std::vector<double> anomaly_detector::score_batch(const tensor& images) {
  if (!metrics::enabled()) return do_score_batch(images);
  trace_span span{"detect.score_batch"};
  metrics::histogram* batch_seconds =
      metrics::get_histogram(labeled("dv_detector_score_batch_seconds", name()),
                       metrics::histogram_options::latency());
  const std::int64_t start_ns = metrics::now_ns();
  std::vector<double> out = do_score_batch(images);
  batch_seconds->observe(
      static_cast<double>(metrics::now_ns() - start_ns) * 1e-9);
  metrics::count(labeled("dv_detector_images_scored_total", name()),
               static_cast<std::uint64_t>(images.extent(0)));
  return out;
}

std::vector<double> anomaly_detector::do_score_batch(const tensor& images) {
  const std::int64_t n = images.extent(0);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    out.push_back(score(images.sample(i)));
  }
  return out;
}

correct_train_features extract_correct_train_features(const sequential& model,
                                                      const dataset& train) {
  constexpr std::int64_t batch = 128;
  correct_train_features out;
  out.correct.resize(static_cast<std::size_t>(train.num_classes));
  for (std::int64_t begin = 0; begin < train.size(); begin += batch) {
    const std::int64_t end = std::min(train.size(), begin + batch);
    const activation_batch acts =
        extract_activations(model, train.images.slice_rows(begin, end));
    const tensor f = acts.last_probe_features();
    const std::int64_t d = f.extent(1);
    if (out.features.empty()) out.features = tensor{{train.size(), d}};
    std::copy_n(f.data(), f.numel(), out.features.data() + begin * d);
    for (std::int64_t i = begin; i < end; ++i) {
      const auto y = train.labels[static_cast<std::size_t>(i)];
      if (acts.predictions[static_cast<std::size_t>(i - begin)] == y) {
        out.correct[static_cast<std::size_t>(y)].push_back(i);
      }
    }
  }
  return out;
}

void record_detection_counts(const std::string& detector,
                             const std::vector<double>& anomalous_scores,
                             const std::vector<double>& clean_scores,
                             double threshold) {
  if (!metrics::enabled()) return;
  std::uint64_t tp = 0, fn = 0, fp = 0, tn = 0;
  for (const double s : anomalous_scores) (s >= threshold ? tp : fn) += 1;
  for (const double s : clean_scores) (s >= threshold ? fp : tn) += 1;
  metrics::count(labeled("dv_detector_true_positives_total", detector), tp);
  metrics::count(labeled("dv_detector_false_negatives_total", detector), fn);
  metrics::count(labeled("dv_detector_false_positives_total", detector), fp);
  metrics::count(labeled("dv_detector_true_negatives_total", detector), tn);
  if (tp + fn > 0) {
    metrics::set(labeled("dv_detector_tpr", detector),
               static_cast<double>(tp) / static_cast<double>(tp + fn));
  }
  if (fp + tn > 0) {
    metrics::set(labeled("dv_detector_fpr", detector),
               static_cast<double>(fp) / static_cast<double>(fp + tn));
  }
}

}  // namespace dv
