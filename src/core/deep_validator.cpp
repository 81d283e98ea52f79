#include "core/deep_validator.h"

#include <algorithm>
#include <stdexcept>

#include "core/weighted_joint.h"
#include "util/flat_snapshot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace dv {

namespace {

/// Appends the rows of `block` to `dst` (allocating on first use).
void append_rows(tensor& dst, const tensor& block, std::int64_t total_rows,
                 std::int64_t& cursor) {
  const std::int64_t d = block.extent(1);
  if (dst.empty()) {
    dst = tensor{{total_rows, d}};
  }
  std::copy_n(block.data(), block.numel(), dst.data() + cursor * d);
  cursor += block.extent(0);
}
}  // namespace

void deep_validator::fit(const sequential& model, const dataset& train,
                         const deep_validator_config& config) {
  if (const char* error =
          bank_settings_error(config.spatial, config.batch.max_batch)) {
    throw std::invalid_argument{std::string{"deep_validator::fit: "} + error};
  }
  stopwatch timer;
  trace_span fit_span{"validator.fit"};
  spatial_ = config.spatial;
  batch_ = config.batch;

  // Decide which probes to validate.
  const int total_probes = model.probe_count();
  if (total_probes == 0) {
    throw std::invalid_argument{"deep_validator::fit: model has no probes"};
  }
  const int first_probe =
      config.last_probes > 0 && config.last_probes < total_probes
          ? total_probes - config.last_probes
          : 0;
  probe_indices_.clear();
  for (int p = first_probe; p < total_probes; ++p) probe_indices_.push_back(p);

  // Algorithm 1 in one pass: each training image is forwarded once, and
  // its prediction decides whether it is kept (line 2: only correctly
  // classified images) while its reduced features wait for the SVMs.
  // Rows are independent (DESIGN.md §8), so a kept row's features equal a
  // second pass over the kept images alone, bit for bit.
  const std::int64_t total = train.size();
  std::vector<tensor> all_features(probe_indices_.size());
  std::vector<std::int64_t> cursors(probe_indices_.size(), 0);
  std::vector<std::int64_t> kept;
  for (std::int64_t begin = 0; begin < total; begin += batch_.max_batch) {
    const std::int64_t end =
        std::min<std::int64_t>(total, begin + batch_.max_batch);
    const activation_batch acts =
        extract_activations(model, train.images.slice_rows(begin, end));
    for (std::int64_t i = begin; i < end; ++i) {
      if (acts.predictions[static_cast<std::size_t>(i - begin)] ==
          train.labels[static_cast<std::size_t>(i)]) {
        kept.push_back(i);
      }
    }
    for (std::size_t v = 0; v < probe_indices_.size(); ++v) {
      append_rows(all_features[v],
                  acts.probe_features(probe_indices_[v], spatial_), total,
                  cursors[v]);
    }
  }
  log_info() << "deep_validator::fit: " << kept.size() << "/" << total
             << " training images correctly classified";

  // Per-class subsampling to the configured cap (keeps SVM training cheap
  // and classes balanced).
  {
    rng gen{config.seed};
    std::vector<std::vector<std::int64_t>> per_class(
        static_cast<std::size_t>(train.num_classes));
    for (const auto i : kept) {
      per_class[static_cast<std::size_t>(
                    train.labels[static_cast<std::size_t>(i)])]
          .push_back(i);
    }
    kept.clear();
    for (auto& rows : per_class) {
      gen.shuffle_indices(rows.size(), [&](std::size_t a, std::size_t b) {
        std::swap(rows[a], rows[b]);
      });
      const auto cap = static_cast<std::size_t>(config.max_train_per_class);
      if (config.max_train_per_class > 0 && rows.size() > cap) {
        rows.resize(cap);
      }
      kept.insert(kept.end(), rows.begin(), rows.end());
    }
    std::sort(kept.begin(), kept.end());
  }
  std::vector<std::int64_t> labels(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    labels[k] = train.labels[static_cast<std::size_t>(kept[k])];
  }

  // Algorithm 1 main loop: one SVM per (layer, class).
  validators_.clear();
  validators_.resize(probe_indices_.size());
  metrics::histogram* layer_fit_seconds = metrics::get_histogram(
      "dv_validator_layer_fit_seconds", metrics::histogram_options::latency());
  for (std::size_t v = 0; v < validators_.size(); ++v) {
    trace_span layer_span{"validator.fit_layer"};
    const std::int64_t layer_start_ns = metrics::now_ns();
    const tensor features = all_features[v].select_rows(kept);
    validators_[v].fit(features, labels, train.num_classes, config.svm);
    if (layer_fit_seconds != nullptr) {
      layer_fit_seconds->observe(
          static_cast<double>(metrics::now_ns() - layer_start_ns) * 1e-9);
      metrics::count("dv_validator_layers_fitted_total");
    }
    log_info() << "deep_validator::fit: layer " << probe_indices_[v]
               << " (dim " << features.extent(1) << ") fitted "
               << train.num_classes << " SVMs";
  }
  log_info() << "deep_validator::fit: done in " << timer.seconds() << "s";
}

validator_bank_view deep_validator::bank() const {
  if (!fitted()) throw std::logic_error{"deep_validator: not fitted"};
  std::vector<layer_validator_view> layers;
  layers.reserve(validators_.size());
  for (const auto& v : validators_) layers.push_back(v.view());
  return validator_bank_view{std::move(layers), probe_indices_, spatial_,
                             batch_, threshold_};
}

deep_validator::scores deep_validator::evaluate(const sequential& model,
                                                const tensor& images) const {
  if (!fitted()) throw std::logic_error{"deep_validator: not fitted"};
  return bank().evaluate(model, images);
}

deep_validator::scores deep_validator::evaluate(
    const activation_batch& acts) const {
  if (!fitted()) throw std::logic_error{"deep_validator: not fitted"};
  return bank().evaluate(acts);
}

double deep_validator::joint_discrepancy(const sequential& model,
                                         const tensor& image) const {
  tensor batch = image;
  if (batch.dim() == 3) {
    batch.reshape({1, image.extent(0), image.extent(1), image.extent(2)});
  }
  if (batch.dim() != 4 || batch.extent(0) != 1) {
    throw std::invalid_argument{"joint_discrepancy: expected one image"};
  }
  return evaluate(model, batch).joint.front();
}

void deep_validator::save_snapshot(
    const std::string& path, const weighted_joint_validator* weighted) const {
  if (!fitted()) {
    throw std::logic_error{"deep_validator::save_snapshot: not fitted"};
  }
  snapshot_writer w;
  w.add_i64_scalar("bank/format", 1);
  const std::int64_t meta_i[3] = {
      spatial_, batch_.max_batch,
      static_cast<std::int64_t>(validators_.size())};
  const double meta_f[1] = {threshold_};
  w.add_i64("bank/meta_i", meta_i);
  w.add_f64("bank/meta_f", meta_f);
  std::vector<std::int32_t> probes(probe_indices_.begin(),
                                   probe_indices_.end());
  w.add_i32("bank/probes", probes);
  for (std::size_t v = 0; v < validators_.size(); ++v) {
    validators_[v].save_snapshot(w, "bank/L" + std::to_string(v) + "/");
  }
  if (weighted != nullptr && weighted->fitted()) {
    weighted->save_snapshot(w, "bank/weighted/");
  }
  w.finish(path);
}

deep_validator deep_validator::load_snapshot(const std::string& path) {
  const auto snap = snapshot_view::open(path);
  bank_snapshot_header header = read_bank_header(*snap);
  deep_validator out;
  out.spatial_ = header.spatial;
  out.batch_ = header.batch;
  out.threshold_ = header.threshold;
  out.probe_indices_ = std::move(header.probes);
  const auto layer_count =
      static_cast<std::int64_t>(out.probe_indices_.size());
  out.validators_.reserve(static_cast<std::size_t>(layer_count));
  for (std::int64_t v = 0; v < layer_count; ++v) {
    out.validators_.push_back(layer_validator::load_snapshot(
        *snap, "bank/L" + std::to_string(v) + "/"));
  }
  return out;
}

}  // namespace dv
