#include "core/weighted_joint.h"

#include <stdexcept>

#include "util/flat_snapshot.h"

namespace dv {

namespace {
std::vector<std::vector<double>> per_layer_rows(
    const deep_validator::scores& s) {
  const std::size_t layers = s.per_layer.size();
  const std::size_t n = s.joint.size();
  std::vector<std::vector<double>> rows(n, std::vector<double>(layers));
  for (std::size_t l = 0; l < layers; ++l) {
    for (std::size_t i = 0; i < n; ++i) rows[i][l] = s.per_layer[l][i];
  }
  return rows;
}
}  // namespace

void weighted_joint_validator::fit(sequential& model,
                                   const deep_validator& base,
                                   const tensor& clean,
                                   const tensor& outliers) {
  if (!base.fitted()) {
    throw std::logic_error{"weighted_joint_validator: base not fitted"};
  }
  const auto neg = per_layer_rows(base.evaluate(model, clean));
  const auto pos = per_layer_rows(base.evaluate(model, outliers));
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  x.reserve(neg.size() + pos.size());
  for (const auto& row : pos) {
    x.push_back(row);
    y.push_back(1);
  }
  for (const auto& row : neg) {
    x.push_back(row);
    y.push_back(0);
  }
  combiner_.fit(x, y);
}

weighted_joint_view weighted_joint_validator::view() const {
  if (!fitted()) {
    throw std::logic_error{"weighted_joint_validator: not fitted"};
  }
  return weighted_joint_view{combiner_.weights(), combiner_.bias()};
}

std::vector<double> weighted_joint_validator::score_batch(
    sequential& model, const deep_validator& base,
    const tensor& images) const {
  if (!fitted()) {
    throw std::logic_error{"weighted_joint_validator: not fitted"};
  }
  // Delegate per-row scoring to the view so the fitted path and the
  // snapshot-backed path (validator_bank_view::weighted) are one code
  // path: weighted_joint_view::decision replays the exact
  // logistic_regression::decision accumulation order.
  const weighted_joint_view v = view();
  const auto rows = per_layer_rows(base.evaluate(model, images));
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(v.decision(row));
  return out;
}

void weighted_joint_validator::save_snapshot(snapshot_writer& w,
                                             const std::string& prefix) const {
  if (!fitted()) {
    throw std::logic_error{"weighted_joint_validator: not fitted"};
  }
  w.add_f64(prefix + "weights", combiner_.weights());
  w.add_f64_scalar(prefix + "bias", combiner_.bias());
}

tensor weighted_joint_validator::make_noise_outliers(
    const std::vector<std::int64_t>& shape, std::uint64_t seed) {
  rng gen{seed};
  return tensor::uniform(shape, gen, 0.0f, 1.0f);
}

}  // namespace dv
