#include "core/validator_bank.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/metrics.h"
#include "util/serialize.h"
#include "util/trace.h"

namespace dv {

// ---------------------------------------------------------------------------
// bank settings and snapshot header

const char* bank_settings_error(int spatial, int max_batch) {
  if (spatial < 1) return "spatial must be >= 1";
  if (max_batch < 1) return "max_batch must be >= 1";
  return nullptr;
}

bank_snapshot_header read_bank_header(const snapshot_view& snap) {
  if (snap.i64_scalar("bank/format") != 1) {
    throw serialize_error{"snapshot bank: unsupported bank format"};
  }
  const auto meta_i = snap.i64("bank/meta_i");
  const auto meta_f = snap.f64("bank/meta_f");
  if (meta_i.size() != 3 || meta_f.size() != 1) {
    throw serialize_error{"snapshot bank: bad metadata"};
  }
  bank_snapshot_header out;
  out.spatial = static_cast<int>(meta_i[0]);
  out.batch.max_batch = static_cast<int>(meta_i[1]);
  out.threshold = meta_f[0];
  if (const char* error =
          bank_settings_error(out.spatial, out.batch.max_batch)) {
    throw serialize_error{std::string{"snapshot bank: "} + error};
  }
  const auto layer_count = meta_i[2];
  const auto probes = snap.i32("bank/probes");
  if (layer_count < 1 ||
      probes.size() != static_cast<std::size_t>(layer_count)) {
    throw serialize_error{"snapshot bank: probe/layer count mismatch"};
  }
  out.probes.assign(probes.begin(), probes.end());
  // Fail closed on numerically bad banks: a +Inf support-vector entry, for
  // one, drops out of the RBF sum and leaves finite, wrong discrepancies.
  snap.require_finite("bank/");
  return out;
}

// ---------------------------------------------------------------------------
// weighted_joint_view

weighted_joint_view::weighted_joint_view(std::span<const double> weights,
                                         double bias)
    : weights_{weights}, bias_{bias} {}

double weighted_joint_view::decision(
    std::span<const double> per_layer_row) const {
  if (!valid()) throw std::logic_error{"weighted_joint_view: no weights"};
  if (per_layer_row.size() != weights_.size()) {
    throw std::invalid_argument{"weighted_joint_view: dimension mismatch"};
  }
  // Same accumulation order as logistic_regression::decision, so the
  // builder path (which delegates here) and the snapshot path agree
  // bitwise.
  double z = bias_;
  for (std::size_t j = 0; j < per_layer_row.size(); ++j) {
    z += weights_[j] * per_layer_row[j];
  }
  return z;
}

weighted_joint_view weighted_joint_view::from_snapshot(
    const snapshot_view& snap, const std::string& prefix) {
  const auto weights = snap.f64(prefix + "weights");
  const double bias = snap.f64_scalar(prefix + "bias");
  if (weights.empty()) {
    throw serialize_error{"snapshot weighted '" + prefix + "': empty weights"};
  }
  return weighted_joint_view{weights, bias};
}

// ---------------------------------------------------------------------------
// validator_bank_view

validator_bank_view::validator_bank_view(
    std::vector<layer_validator_view> layers, std::vector<int> probe_indices,
    int spatial, batch_config batch, double threshold,
    weighted_joint_view weighted, std::shared_ptr<const snapshot_view> snap)
    : layers_{std::move(layers)},
      probe_indices_{std::move(probe_indices)},
      spatial_{spatial},
      batch_{batch},
      threshold_{threshold},
      weighted_{weighted},
      snap_{std::move(snap)} {
  if (layers_.size() != probe_indices_.size()) {
    throw std::invalid_argument{
        "validator_bank_view: layer/probe count mismatch"};
  }
  if (weighted_.valid() && weighted_.weights().size() != layers_.size()) {
    throw std::invalid_argument{
        "validator_bank_view: weight/layer count mismatch"};
  }
}

validator_bank_view validator_bank_view::from_snapshot(
    std::shared_ptr<const snapshot_view> snap) {
  if (snap == nullptr) {
    throw std::invalid_argument{"validator_bank_view: null snapshot"};
  }
  bank_snapshot_header header = read_bank_header(*snap);
  const auto layer_count = static_cast<std::int64_t>(header.probes.size());
  std::vector<layer_validator_view> layers;
  layers.reserve(static_cast<std::size_t>(layer_count));
  for (std::int64_t v = 0; v < layer_count; ++v) {
    layers.push_back(layer_validator_view::from_snapshot(
        *snap, "bank/L" + std::to_string(v) + "/"));
  }
  weighted_joint_view weighted;
  if (snap->has("bank/weighted/weights")) {
    weighted = weighted_joint_view::from_snapshot(*snap, "bank/weighted/");
    if (weighted.weights().size() != layers.size()) {
      throw serialize_error{"snapshot bank: weight/layer count mismatch"};
    }
  }
  return validator_bank_view{std::move(layers), std::move(header.probes),
                             header.spatial, header.batch, header.threshold,
                             weighted, std::move(snap)};
}

validation_scores validator_bank_view::evaluate(
    const activation_batch& acts) const {
  if (!valid()) throw std::logic_error{"deep_validator: not fitted"};
  trace_span eval_span{"validator.evaluate"};
  const auto n = static_cast<std::size_t>(acts.size());
  validation_scores out;
  out.per_layer.assign(layers_.size(), std::vector<double>(n));
  out.joint.assign(n, 0.0);
  out.predictions.assign(n, 0);
  score_into(acts, out, 0);
  return out;
}

validation_scores validator_bank_view::evaluate(const sequential& model,
                                                const tensor& images) const {
  if (!valid()) throw std::logic_error{"deep_validator: not fitted"};
  trace_span eval_span{"validator.evaluate"};
  const std::int64_t n = images.extent(0);
  validation_scores out;
  out.per_layer.assign(layers_.size(),
                       std::vector<double>(static_cast<std::size_t>(n)));
  out.joint.assign(static_cast<std::size_t>(n), 0.0);
  out.predictions.assign(static_cast<std::size_t>(n), 0);

  for (std::int64_t begin = 0; begin < n; begin += batch_.max_batch) {
    const std::int64_t end = std::min<std::int64_t>(n, begin + batch_.max_batch);
    const activation_batch acts =
        extract_activations(model, images.slice_rows(begin, end));
    score_into(acts, out, begin);
  }
  return out;
}

void validator_bank_view::score_into(const activation_batch& acts,
                                     validation_scores& out,
                                     std::int64_t base) const {
  metrics::counter* images_scored =
      metrics::get_counter("dv_validator_images_scored_total");
  metrics::histogram* score_seconds = metrics::get_histogram(
      "dv_validator_score_seconds", metrics::histogram_options::latency());
  if (!probe_indices_.empty() &&
      probe_indices_.back() >= acts.probe_count()) {
    throw std::logic_error{"deep_validator::evaluate: probe count changed"};
  }
  const std::int64_t count = acts.size();
  const auto& preds = acts.predictions;
  // Reduce each validated probe once for the whole mini-batch.
  std::vector<tensor> reduced(layers_.size());
  for (std::size_t v = 0; v < layers_.size(); ++v) {
    reduced[v] = acts.probe_features(probe_indices_[v], spatial_);
  }
  // Score one layer at a time through discrepancy_batch: the rows group
  // by predicted class into one decision_batch per (layer, class) SVM,
  // which parallelizes over rows internally and serves repeated probe
  // activations from the decision cache when caching is on
  // (docs/CACHING.md). Per-image math is unchanged — each row's value is
  // the same discrepancy() computation, and the joint sum below folds
  // the layers in the same ascending order as before — so scores are
  // bit-identical to the per-image path for any DV_THREADS and cache
  // setting. dv_validator_score_seconds observes one batched layer
  // evaluation per sample (docs/OBSERVABILITY.md).
  for (std::size_t v = 0; v < layers_.size(); ++v) {
    const std::int64_t layer_start_ns =
        score_seconds != nullptr ? metrics::now_ns() : 0;
    const std::vector<double> disc =
        layers_[v].discrepancy_batch(preds, reduced[v]);
    for (std::int64_t i = 0; i < count; ++i) {
      out.per_layer[v][static_cast<std::size_t>(base + i)] =
          disc[static_cast<std::size_t>(i)];
    }
    if (score_seconds != nullptr) {
      score_seconds->observe(
          static_cast<double>(metrics::now_ns() - layer_start_ns) * 1e-9);
    }
  }
  for (std::int64_t i = 0; i < count; ++i) {
    const auto slot = static_cast<std::size_t>(base + i);
    double joint = 0.0;
    for (std::size_t v = 0; v < layers_.size(); ++v) {
      joint += out.per_layer[v][slot];
    }
    out.joint[slot] = joint;
    out.predictions[slot] = preds[static_cast<std::size_t>(i)];
  }
  if (images_scored != nullptr) {
    images_scored->add(static_cast<std::uint64_t>(count));
  }
}

}  // namespace dv
