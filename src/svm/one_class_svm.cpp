#include "svm/one_class_svm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "tensor/ops.h"
#include "util/flat_snapshot.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace dv {

void one_class_svm::fit(const tensor& samples,
                        const one_class_svm_config& config) {
  if (samples.dim() != 2 || samples.extent(0) < 2) {
    throw std::invalid_argument{"one_class_svm::fit: need [n>=2, d] samples"};
  }
  if (config.nu <= 0.0 || config.nu > 1.0) {
    throw std::invalid_argument{"one_class_svm::fit: nu must be in (0, 1]"};
  }
  const std::int64_t n = samples.extent(0);
  const std::int64_t d = samples.extent(1);
  kernel_ = config.kernel;
  gamma_ = config.gamma > 0.0 ? config.gamma : gamma_scale_heuristic(samples);

  const double c_upper = 1.0 / (config.nu * static_cast<double>(n));
  // Initialization per Schölkopf: the first floor(nu*l) points at the upper
  // bound, one fractional point, the rest at zero; sums to exactly one.
  std::vector<double> alpha(static_cast<std::size_t>(n), 0.0);
  {
    double remaining = 1.0;
    for (std::int64_t i = 0; i < n && remaining > 0.0; ++i) {
      const double take = std::min(c_upper, remaining);
      alpha[static_cast<std::size_t>(i)] = take;
      remaining -= take;
    }
  }

  const tensor q = kernel_matrix(kernel_, samples, gamma_);

  // Gradient of the objective: G_i = sum_j alpha_j Q_ij. Each grad entry
  // is written by exactly one row with a fixed inner summation order, so
  // the parallel rows are bit-identical for any thread count.
  std::vector<double> grad(static_cast<std::size_t>(n), 0.0);
  // dv:parallel-safe(disjoint grad entries, fixed inner summation order)
  parallel_for(0, n, 16, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      double acc = 0.0;
      const float* row = q.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        acc += alpha[static_cast<std::size_t>(j)] * row[j];
      }
      grad[static_cast<std::size_t>(i)] = acc;
    }
  });

  // SMO over maximal violating pairs.
  std::int64_t iter = 0;
  for (; iter < config.max_iterations; ++iter) {
    // i: smallest gradient among alpha_i < C (most room to grow),
    // j: largest gradient among alpha_j > 0 (most room to shrink).
    std::int64_t best_i = -1, best_j = -1;
    double min_up = std::numeric_limits<double>::infinity();
    double max_low = -std::numeric_limits<double>::infinity();
    for (std::int64_t t = 0; t < n; ++t) {
      const double a = alpha[static_cast<std::size_t>(t)];
      const double g = grad[static_cast<std::size_t>(t)];
      if (a < c_upper - 1e-15 && g < min_up) {
        min_up = g;
        best_i = t;
      }
      if (a > 1e-15 && g > max_low) {
        max_low = g;
        best_j = t;
      }
    }
    if (best_i < 0 || best_j < 0 || max_low - min_up <= config.tolerance) {
      break;
    }
    const std::int64_t i = best_i, j = best_j;
    const float* qi = q.data() + i * n;
    const float* qj = q.data() + j * n;
    double curvature =
        static_cast<double>(qi[i]) + qj[j] - 2.0 * static_cast<double>(qi[j]);
    if (curvature <= 1e-12) curvature = 1e-12;
    double step = (grad[static_cast<std::size_t>(j)] -
                   grad[static_cast<std::size_t>(i)]) /
                  curvature;
    step = std::min(step, c_upper - alpha[static_cast<std::size_t>(i)]);
    step = std::min(step, alpha[static_cast<std::size_t>(j)]);
    if (step <= 0.0) break;
    alpha[static_cast<std::size_t>(i)] += step;
    alpha[static_cast<std::size_t>(j)] -= step;
    for (std::int64_t t = 0; t < n; ++t) {
      grad[static_cast<std::size_t>(t)] +=
          step * (static_cast<double>(qi[t]) - qj[t]);
    }
  }
  iterations_ = iter;

  // rho from KKT conditions: G_i == rho on free support vectors.
  double free_sum = 0.0;
  std::int64_t free_count = 0;
  double upper_max = -std::numeric_limits<double>::infinity();  // alpha == C
  double lower_min = std::numeric_limits<double>::infinity();   // alpha == 0
  for (std::int64_t t = 0; t < n; ++t) {
    const double a = alpha[static_cast<std::size_t>(t)];
    const double g = grad[static_cast<std::size_t>(t)];
    if (a > 1e-12 && a < c_upper - 1e-12) {
      free_sum += g;
      ++free_count;
    } else if (a >= c_upper - 1e-12) {
      upper_max = std::max(upper_max, g);
    } else {
      lower_min = std::min(lower_min, g);
    }
  }
  if (free_count > 0) {
    rho_ = free_sum / static_cast<double>(free_count);
  } else {
    rho_ = 0.5 * (upper_max + lower_min);
  }

  // Keep only support vectors.
  std::vector<std::int64_t> sv;
  for (std::int64_t t = 0; t < n; ++t) {
    if (alpha[static_cast<std::size_t>(t)] > 1e-12) sv.push_back(t);
  }
  support_vectors_ = tensor{{static_cast<std::int64_t>(sv.size()), d}};
  alpha_.resize(sv.size());
  for (std::size_t k = 0; k < sv.size(); ++k) {
    std::copy_n(samples.data() + sv[k] * d, d,
                support_vectors_.data() + static_cast<std::int64_t>(k) * d);
    alpha_[k] = alpha[static_cast<std::size_t>(sv[k])];
  }
  fitted_ = true;
  log_debug() << "one_class_svm: n=" << n << " d=" << d << " sv=" << sv.size()
              << " iters=" << iter << " rho=" << rho_;
}

one_class_svm_view one_class_svm::view() const {
  if (!fitted_) throw std::logic_error{"one_class_svm::view: not fitted"};
  return one_class_svm_view{kernel_,
                            gamma_,
                            rho_,
                            support_vectors_.data(),
                            support_vectors_.extent(0),
                            support_vectors_.extent(1),
                            alpha_.data(),
                            iterations_,
                            &decision_cache_};
}

double one_class_svm::decision(std::span<const float> x) const {
  if (!fitted_) throw std::logic_error{"one_class_svm::decision: not fitted"};
  return view().decision(x);
}

std::vector<double> one_class_svm::decision_batch(const tensor& x) const {
  if (!fitted_) {
    throw std::logic_error{"one_class_svm::decision_batch: not fitted"};
  }
  return view().decision_batch(x);
}

// ---------------------------------------------------------------------------
// one_class_svm_view — the single scoring implementation (builder
// delegates through view(), so owned and snapshot-backed paths share it).

one_class_svm_view::one_class_svm_view(kernel_kind kernel, double gamma,
                                       double rho,
                                       const float* support_vectors,
                                       std::int64_t m, std::int64_t d,
                                       const double* alpha,
                                       std::int64_t iterations,
                                       strong_lru_cache<double>* cache)
    : kernel_{kernel},
      gamma_{gamma},
      rho_{rho},
      sv_{support_vectors},
      alpha_{alpha},
      m_{m},
      d_{d},
      iterations_{iterations},
      external_cache_{cache} {
  if (m_ < 0 || d_ < 0 || (m_ > 0 && (sv_ == nullptr || alpha_ == nullptr))) {
    throw std::invalid_argument{"one_class_svm_view: bad storage"};
  }
}

double one_class_svm_view::decision(std::span<const float> x) const {
  if (!valid()) throw std::logic_error{"one_class_svm::decision: not fitted"};
  if (static_cast<std::int64_t>(x.size()) != d_) {
    throw std::invalid_argument{"one_class_svm::decision: dimension mismatch"};
  }
  double acc = 0.0;
  const std::int64_t m = m_;
  if (kernel_ == kernel_kind::rbf) {
    // Batch the squared distances through the SIMD row kernel, then fold
    // alpha_i * exp(...) in the same sequential i order as the generic
    // loop below — bitwise identical to per-pair kernel_value calls.
    thread_local std::vector<double> sq;
    sq.resize(static_cast<std::size_t>(m));
    squared_distance_row(x.data(), sv_, m, d_, sq.data());
    for (std::int64_t i = 0; i < m; ++i) {
      acc += alpha_[static_cast<std::size_t>(i)] *
             std::exp(-gamma_ * sq[static_cast<std::size_t>(i)]);
    }
    return acc - rho_;
  }
  for (std::int64_t i = 0; i < m; ++i) {
    acc += alpha_[static_cast<std::size_t>(i)] *
           kernel_value(kernel_, sv_ + i * d_, x.data(), d_, gamma_);
  }
  return acc - rho_;
}

std::vector<double> one_class_svm_view::decision_batch(const tensor& x) const {
  if (!valid()) {
    throw std::logic_error{"one_class_svm::decision_batch: not fitted"};
  }
  if (x.dim() != 2 || x.extent(1) != d_) {
    throw std::invalid_argument{
        "one_class_svm::decision_batch: expected [n, " + std::to_string(d_) +
        "], got " + x.shape_string()};
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t d = d_;
  std::vector<double> out(static_cast<std::size_t>(n));
  if (!cache_enabled()) {
    // One output per row; per-row math is the sequential decision() loop.
    // decision()'s thread_local scratch resizes to the fixed
    // support-vector count once per thread, then stays warm.
    // dv:parallel-safe(disjoint slots) dv-lint: allow(effect:may_allocate)
    parallel_for(0, n, 8, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        out[static_cast<std::size_t>(i)] =
            decision({x.data() + i * d, static_cast<std::size_t>(d)});
      }
    });
    return out;
  }

  // Cached path (docs/CACHING.md): probe sequentially in row order,
  // compute only the distinct missed rows in parallel (identical rows in
  // one batch cost one evaluation — identical bytes give the identical
  // decision value), then insert sequentially in first-occurrence order.
  // All cache mutation happens at single-threaded program points, so
  // hit/miss totals and eviction order are identical at any DV_THREADS,
  // and each row's value is the same decision() math either way —
  // bitwise transparent. Rebuilding when the capacity knob moved keeps
  // set_cache_capacity() effective for tests/benches.
  strong_lru_cache<double>* slot = cache();
  if (slot->capacity() != cache_capacity()) {
    *slot = strong_lru_cache<double>{cache_capacity(), "decision"};
  }
  std::vector<strong_hash> hashes(static_cast<std::size_t>(n));
  std::vector<std::int64_t> miss_rows;  // first row per distinct missed hash
  std::vector<std::int64_t> miss_index(static_cast<std::size_t>(n), -1);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t> seen;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto& h = hashes[static_cast<std::size_t>(i)] =
        strong_hash::of_bytes(x.data() + i * d,
                              static_cast<std::size_t>(d) * sizeof(float));
    if (const double* hit = slot->find(h)) {
      out[static_cast<std::size_t>(i)] = *hit;
      continue;
    }
    const auto [it, inserted] = seen.emplace(
        std::make_pair(h.hi, h.lo),
        static_cast<std::int64_t>(miss_rows.size()));
    if (inserted) miss_rows.push_back(i);
    miss_index[static_cast<std::size_t>(i)] = it->second;
  }
  std::vector<double> fresh(miss_rows.size());
  // decision()'s thread_local scratch resizes to the fixed support-vector
  // count once per thread, then stays warm.
  // dv:parallel-safe(disjoint slots) dv-lint: allow(effect:may_allocate)
  parallel_for(0, static_cast<std::int64_t>(miss_rows.size()), 8,
               [&](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t m = begin; m < end; ++m) {
                   const std::int64_t i =
                       miss_rows[static_cast<std::size_t>(m)];
                   fresh[static_cast<std::size_t>(m)] =
                       decision({x.data() + i * d, static_cast<std::size_t>(d)});
                 }
               });
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t m = miss_index[static_cast<std::size_t>(i)];
    if (m >= 0) out[static_cast<std::size_t>(i)] = fresh[static_cast<std::size_t>(m)];
  }
  for (std::size_t m = 0; m < miss_rows.size(); ++m) {
    slot->insert(hashes[static_cast<std::size_t>(miss_rows[m])], fresh[m]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serialization: flat snapshot sections.

void one_class_svm::save_snapshot(snapshot_writer& w,
                                  const std::string& prefix) const {
  if (!fitted_) {
    throw std::logic_error{"one_class_svm::save_snapshot: not fitted"};
  }
  const std::int64_t meta_i[4] = {static_cast<std::int64_t>(kernel_),
                                  iterations_, support_vectors_.extent(0),
                                  support_vectors_.extent(1)};
  const double meta_f[2] = {gamma_, rho_};
  w.add_i64(prefix + "meta_i", meta_i);
  w.add_f64(prefix + "meta_f", meta_f);
  w.add_f32(prefix + "sv", support_vectors_.span());
  w.add_f64(prefix + "alpha", alpha_);
}

namespace {
/// Shared section decoding for the zero-copy view and the materializer;
/// throws serialize_error on any cross-section inconsistency.
struct svm_sections {
  kernel_kind kernel;
  std::int64_t iterations;
  std::int64_t m;
  std::int64_t d;
  double gamma;
  double rho;
  std::span<const float> sv;
  std::span<const double> alpha;
};

svm_sections read_svm_sections(const snapshot_view& snap,
                               const std::string& prefix) {
  const auto meta_i = snap.i64(prefix + "meta_i");
  const auto meta_f = snap.f64(prefix + "meta_f");
  if (meta_i.size() != 4 || meta_f.size() != 2) {
    throw serialize_error{"snapshot svm '" + prefix + "': bad metadata"};
  }
  svm_sections s;
  if (meta_i[0] < 0 || meta_i[0] > static_cast<std::int64_t>(kernel_kind::rbf)) {
    throw serialize_error{"snapshot svm '" + prefix + "': unknown kernel"};
  }
  s.kernel = static_cast<kernel_kind>(meta_i[0]);
  s.iterations = meta_i[1];
  s.m = meta_i[2];
  s.d = meta_i[3];
  s.gamma = meta_f[0];
  s.rho = meta_f[1];
  s.sv = snap.f32(prefix + "sv");
  s.alpha = snap.f64(prefix + "alpha");
  if (s.m < 1 || s.d < 1 ||
      s.sv.size() != static_cast<std::size_t>(s.m * s.d) ||
      s.alpha.size() != static_cast<std::size_t>(s.m)) {
    throw serialize_error{"snapshot svm '" + prefix + "': inconsistent shape"};
  }
  return s;
}
}  // namespace

one_class_svm_view one_class_svm_view::from_snapshot(
    const snapshot_view& snap, const std::string& prefix) {
  const svm_sections s = read_svm_sections(snap, prefix);
  return one_class_svm_view{s.kernel,      s.gamma, s.rho, s.sv.data(), s.m,
                            s.d,           s.alpha.data(), s.iterations,
                            nullptr};
}

one_class_svm one_class_svm::load_snapshot(const snapshot_view& snap,
                                           const std::string& prefix) {
  const svm_sections s = read_svm_sections(snap, prefix);
  one_class_svm out;
  out.kernel_ = s.kernel;
  out.gamma_ = s.gamma;
  out.rho_ = s.rho;
  out.iterations_ = s.iterations;
  out.support_vectors_ = tensor{{s.m, s.d}};
  std::copy_n(s.sv.data(), s.sv.size(), out.support_vectors_.data());
  out.alpha_.assign(s.alpha.begin(), s.alpha.end());
  out.fitted_ = true;
  return out;
}

}  // namespace dv
