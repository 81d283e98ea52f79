// One-class support vector machine (Schölkopf et al., Neural Computation
// 2001), the reference-distribution model behind Deep Validation.
//
// Solves  min_a  1/2 a^T Q a   s.t.  0 <= a_i <= 1/(nu*l),  sum a_i = 1,
// with Q_ij = k(x_i, x_j), by sequential minimal optimization over maximal
// violating pairs (the same solver family as libsvm). The decision function
//   t(x) = sum_i a_i k(x_i, x) - rho
// is non-negative on the estimated support of the training distribution and
// negative outside; Deep Validation defines the layer discrepancy as -t(x).
//
// The class splits builder from view (DESIGN.md §16): `one_class_svm` owns
// mutable training state and the fit path; `one_class_svm_view` is the
// read-only scoring surface over borrowed support-vector memory — either
// the builder's own heap tensors or a loaded snapshot section
// (util/flat_snapshot.h). Both paths run the SAME scoring code, so a
// snapshot-backed view is bitwise identical to the fitted model.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "svm/kernel.h"
#include "tensor/tensor.h"
#include "util/strong_lru.h"

namespace dv {

class snapshot_view;
class snapshot_writer;

struct one_class_svm_config {
  /// Upper bound on the fraction of outliers / lower bound on the fraction
  /// of support vectors.
  double nu{0.1};
  /// RBF width; <= 0 selects the 1/(d*var) heuristic from the data.
  double gamma{0.0};
  kernel_kind kernel{kernel_kind::rbf};
  /// KKT violation tolerance for the stopping rule.
  double tolerance{1e-4};
  /// Hard cap on SMO iterations.
  std::int64_t max_iterations{200000};
};

/// Read-only scoring view over a fitted one-class SVM. Borrows the
/// support-vector matrix [m, d] and alpha coefficients — valid only while
/// the owner (a one_class_svm or an open snapshot_view) is alive. The
/// scoring implementation lives HERE; the builder delegates, so owned and
/// snapshot-backed scoring are one code path and bitwise identical.
class one_class_svm_view {
 public:
  one_class_svm_view() = default;

  /// Borrows `support_vectors` (row-major [m, d]) and `alpha` (m values).
  /// `cache` binds an external decision cache (the builder passes its own
  /// member so cache state survives across the builder's temp views);
  /// nullptr means the view lazily uses an internal cache.
  one_class_svm_view(kernel_kind kernel, double gamma, double rho,
                     const float* support_vectors, std::int64_t m,
                     std::int64_t d, const double* alpha,
                     std::int64_t iterations,
                     strong_lru_cache<double>* cache = nullptr);

  /// Reads the sections written by one_class_svm::save_snapshot under
  /// `prefix`; spans stay inside the snapshot (zero copy). Throws
  /// serialize_error on any inconsistency.
  static one_class_svm_view from_snapshot(const snapshot_view& snap,
                                          const std::string& prefix);

  /// Signed decision value t(x); requires a non-empty view.
  double decision(std::span<const float> x) const;

  /// Batch decision values for the rows of `x` [n, d], computed in
  /// parallel (one row per output; bit-identical to calling decision()
  /// per row for any thread count). When caching is on (DV_CACHE,
  /// docs/CACHING.md) repeated rows are served from a strong-hash LRU
  /// keyed on the row bytes — bitwise transparent, but concurrent
  /// decision_batch calls through the SAME cache are then forbidden
  /// (the serving layer serializes scoring per bank; see
  /// docs/SNAPSHOTS.md on sharing one engine_handle across services).
  std::vector<double> decision_batch(const tensor& x) const;

  bool valid() const { return m_ > 0; }
  std::int64_t support_count() const { return m_; }
  std::int64_t dimension() const { return d_; }
  double rho() const { return rho_; }
  double gamma() const { return gamma_; }
  kernel_kind kernel() const { return kernel_; }
  std::int64_t iterations_used() const { return iterations_; }
  std::span<const float> support_vectors() const {
    return {sv_, static_cast<std::size_t>(m_ * d_)};
  }
  std::span<const double> alpha() const {
    return {alpha_, static_cast<std::size_t>(m_)};
  }

 private:
  strong_lru_cache<double>* cache() const {
    return external_cache_ != nullptr ? external_cache_ : &own_cache_;
  }

  kernel_kind kernel_{kernel_kind::rbf};
  double gamma_{0.0};
  double rho_{0.0};
  const float* sv_{nullptr};     // [m, d], borrowed
  const double* alpha_{nullptr};  // m values, borrowed
  std::int64_t m_{0};
  std::int64_t d_{0};
  std::int64_t iterations_{0};
  /// Decision cache for snapshot-backed views without an external bind.
  /// Mutable: caching is an implementation detail of a logically-const
  /// query (see the decision_batch contract above for serialization).
  mutable strong_lru_cache<double> own_cache_;
  strong_lru_cache<double>* external_cache_{nullptr};
};

class one_class_svm {
 public:
  one_class_svm() = default;

  /// Fits on `samples` [n, d]. Requires n >= 2 and nu in (0, 1].
  void fit(const tensor& samples, const one_class_svm_config& config);

  /// Signed decision value t(x); requires a fitted model.
  double decision(std::span<const float> x) const;

  /// Batch decision values for the rows of `x` [n, d]; see
  /// one_class_svm_view::decision_batch for the parallelism and caching
  /// contract (this method delegates to a view over the owned storage
  /// bound to this instance's decision cache).
  std::vector<double> decision_batch(const tensor& x) const;

  /// Read-only scoring view over the owned storage, bound to this
  /// instance's decision cache. Valid while this object is alive and
  /// unmodified; requires a fitted model.
  one_class_svm_view view() const;

  /// The decision cache (empty until the first cached decision_batch).
  const strong_lru_cache<double>& decision_cache() const {
    return decision_cache_;
  }

  bool fitted() const { return fitted_; }
  std::int64_t support_count() const { return support_vectors_.empty() ? 0 : support_vectors_.extent(0); }
  double rho() const { return rho_; }
  double gamma() const { return gamma_; }
  std::int64_t dimension() const {
    return support_vectors_.empty() ? 0 : support_vectors_.extent(1);
  }
  std::int64_t iterations_used() const { return iterations_; }

  /// Writes the fitted state as snapshot sections named `prefix` +
  /// {meta_i, meta_f, sv, alpha} (docs/SNAPSHOTS.md).
  void save_snapshot(snapshot_writer& w, const std::string& prefix) const;
  /// Materializes an owned (refit-able) model from snapshot sections —
  /// the copying counterpart of one_class_svm_view::from_snapshot.
  static one_class_svm load_snapshot(const snapshot_view& snap,
                                     const std::string& prefix);

 private:
  tensor support_vectors_;       // [m, d]
  std::vector<double> alpha_;    // m coefficients
  double rho_{0.0};
  double gamma_{0.0};
  kernel_kind kernel_{kernel_kind::rbf};
  std::int64_t iterations_{0};
  bool fitted_{false};
  /// Strong-hash LRU over decision values, lazily sized from
  /// cache_capacity() inside decision_batch. Mutable: caching is an
  /// implementation detail of a logically-const query (see the
  /// decision_batch contract above for the serialization requirement).
  mutable strong_lru_cache<double> decision_cache_;
};

}  // namespace dv
