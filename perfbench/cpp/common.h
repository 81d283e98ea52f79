// Shared pieces of the benchmark binary: options, clocks, statistics,
// fixture locations, the in-memory span log of traced runs, and the
// result that main() prints as the last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "augment/transforms.h"
#include "core/deep_validator.h"
#include "core/monitor.h"
#include "core/validator_bank.h"
#include "data/factory.h"
#include "nn/model.h"
#include "serve/engine_handle.h"
#include "serve/monitor_service.h"
#include "serve/scoring.h"
#include "util/flat_snapshot.h"

namespace perfbench {

using namespace dv;
using steady = std::chrono::steady_clock;

struct run_result;

struct options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string fixtures;
  std::string out_dir;
  /// Name of a correctness check whose reference value the run perturbs,
  /// so the benchmark's own tests can see that check fire.
  std::string perturb;
};

/// Nanoseconds on the steady clock since an arbitrary process epoch.
std::int64_t now_ns();
/// Process CPU (user + sys, all threads) in seconds.
double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mib();

/// Host-wide CPU accounting from /proc/stat, for the steal share.
struct host_cpu {
  std::uint64_t steal{0};
  std::uint64_t total{0};
  static host_cpu sample();
};
double steal_ratio(const host_cpu& before, const host_cpu& after);

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Fixture files made once per build by `dv_perfbench fixtures`.
struct fixture_paths {
  std::string dir;
  std::string model(dataset_kind kind) const;
  std::string bank(dataset_kind kind) const;
  /// Throws when any fixture is missing: runs never train inside timing.
  void require() const;
};

/// A fixed corpus: the first `clean` test images, then the same images
/// under each of the paper's six transformations at fixed parameters
/// (brightness, contrast, rotation, shear, scale, translation).
struct corpus {
  tensor images;
  /// 1 for transformed images (the positives of corner_auroc), else 0.
  std::vector<int> transformed;
  /// ROC-AUC of the per-image joint discrepancy, transformed against
  /// clean.
  double auroc(const std::vector<double>& joint) const;
};
corpus make_corpus(const dataset& test, std::int64_t clean);

// ---------------------------------------------------------------------------
// Set-up: fixtures on disk to the first verdict.

/// Everything one serving set-up owns. Declared in destruction-safe
/// order: the service stops before the scorer, monitor and bank go.
struct served_stack {
  std::unique_ptr<sequential> model;
  std::shared_ptr<const snapshot_view> snap;
  std::unique_ptr<engine_handle> handle;
  std::unique_ptr<deep_validator> monitor_bank;
  std::unique_ptr<runtime_monitor> monitor;
  std::unique_ptr<batch_scorer> scorer;
  std::unique_ptr<monitor_service> service;
};

/// Timings of one set-up, split at the public calls it makes.
struct setup_timing {
  double total_s{0.0};
  double model_load_ms{0.0};
  double snapshot_open_ms{0.0};
  double from_snapshot_ms{0.0};
  double publish_us{0.0};
};

/// Median timings of several set-ups, and the range of their totals.
struct setup_result {
  setup_timing median;
  double min_s{0.0};
  double max_s{0.0};
  double snapshot_bytes{0.0};
  int repeats{0};
  /// Notes the set-up count and range beside the metrics.
  void note(run_result& out) const;
};

serve_config stream_serve_config(int max_batch);

using scorer_factory = std::function<std::unique_ptr<batch_scorer>(
    sequential& model, const engine_handle& handle)>;

/// Builds the street model, published bank, monitor and service and
/// scores the frames of `first_batch` (set-up ends at their verdicts),
/// `repeats` times; keeps the last stack in `keep`, its monitor reset.
/// `make_scorer` builds the batch scorer over the stack's model and handle.
setup_result setup_served(const fixture_paths& fx, const tensor& first_batch,
                          const serve_config& config, int repeats,
                          const scorer_factory& make_scorer,
                          served_stack& keep);

/// One set-up of the offline scorer: model + bank view, scoring
/// `first_batch`.
struct offline_stack {
  std::unique_ptr<sequential> model;
  validator_bank_view bank;
};
setup_result setup_offline(const fixture_paths& fx, dataset_kind kind,
                           const tensor& first_batch, int repeats,
                           offline_stack& keep);

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory, written out at exit.

class span_log {
 public:
  /// Opens a span starting now; returns its index (for use as a parent).
  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::int64_t id);
  void close(std::int64_t index);
  /// Records a finished span; returns its index.
  std::int64_t add(const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, std::int64_t id);
  /// Total duration of spans named `name`, in ms.
  double total_ms(const std::string& name) const;
  /// Smallest share of a `parent_name` span covered by its children.
  double min_child_coverage(const std::string& parent_name) const;
  /// Writes every span as one JSON line with its self time (its duration
  /// minus its children's).
  void write(const std::string& path) const;
  void clear() { spans_.clear(); }

 private:
  struct span {
    int name{0};
    std::int64_t start{0};
    std::int64_t end{0};
    std::int64_t parent{-1};
    std::int64_t id{0};
  };
  int intern(const std::string& name);
  std::vector<span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int> index_;
};

/// RAII span into a span_log (no-op when `log` is null).
class scoped_span {
 public:
  scoped_span(span_log* log, const std::string& name, std::int64_t parent,
              std::int64_t id)
      : log_{log}, index_{log != nullptr ? log->open(name, parent, id) : -1} {}
  ~scoped_span() {
    if (log_ != nullptr) log_->close(index_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  std::int64_t index() const { return index_; }

 private:
  span_log* log_;
  std::int64_t index_;
};

// ---------------------------------------------------------------------------
// Result of one run.

struct metric {
  double value{0.0};
  std::string unit;
};

struct run_result {
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::map<std::string, metric> metrics;
  /// Noise diagnostics and other context, printed before the result.
  std::vector<std::pair<std::string, std::string>> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  /// Counts one check; on failure prints why to stderr.
  void check(bool ok, const std::string& what);
};

/// Every per-layer metric a traced run prints, with its unit, in print
/// order. Layers a workload does not exercise read 0.
std::vector<std::pair<std::string, std::string>> per_layer_metric_names();

/// Per-layer forward name of layer `i` of `model`, e.g.
/// "nn.street.0_conv2d_ms_per_frame".
std::string nn_layer_metric(const std::string& model_name, std::size_t i,
                            const std::string& kind);

/// The per-layer steps of validator_bank_view::score_into on `acts`, in
/// its order, each inside a span under `parent`: probe_features, then
/// discrepancy_batch, per validated layer. Returns the discrepancies.
std::vector<std::vector<double>> traced_layers(const validator_bank_view& bank,
                                               const activation_batch& acts,
                                               span_log& log,
                                               std::int64_t parent,
                                               std::int64_t id);

/// Support vectors of each row's predicted-class SVM, summed over layers:
/// the kernel evaluations an uncached decision costs.
double kernel_evals(const validator_bank_view& bank,
                    const std::vector<std::int64_t>& predictions);

/// The process-wide dv_cache_{hits,misses}_total counters of one cache
/// label (metrics must be enabled while the counted work runs).
std::pair<double, double> cache_counts(const std::string& label);
/// Sets cache.decision_* from two cache_counts("decision") readings.
void set_decision_cache_metrics(run_result& out,
                                std::pair<double, double> before,
                                std::pair<double, double> after);

/// Sets the core.* span metrics from a span log, per frame scored.
void set_core_metrics(run_result& out, const span_log& log, double frames);

/// Per-layer forward cost from replaying recorded model inputs through
/// sequential::at(i).forward, one layer at a time.
struct nn_profile {
  /// Per layer, ms per replayed input row.
  std::vector<double> ms_per_row;
  /// Multiply-accumulates of the conv and dense weights per input row,
  /// counted from layer shapes.
  double macs_per_row{0.0};
};
nn_profile replay_layers(sequential& model, const std::vector<tensor>& inputs);

/// Sets the nn.<model>.* metrics: each layer's replayed ms per row times
/// the rows the workload forwarded per frame it pushed through.
void set_nn_metrics(run_result& out, dataset_kind kind, sequential& model,
                    const nn_profile& profile, double rows_per_frame);

// Workloads.
run_result run_stream(const options& opt, const fixture_paths& fx,
                      bool parked);
run_result run_offline_audit(const options& opt, const fixture_paths& fx);
run_result run_bank_refit(const options& opt, const fixture_paths& fx);
int make_fixtures(const std::string& dir);

}  // namespace perfbench
