// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, with per-thread sharded collection and JSON / Prometheus
// text exporters. Everything lives in namespace dv::metrics (the
// unrelated dv::histogram in eval/histogram.h is the paper's density
// histogram).
//
// Determinism contract (mirrors the thread-pool contract in
// thread_pool.h): every accumulation is integral — counters are u64,
// histogram buckets are u64, and histogram sums are fixed-point i64
// "ticks" (value * options.scale, rounded). Integer addition is
// associative and commutative, so folding the per-thread shards yields
// the same totals no matter how many threads recorded or in which order
// the shards merge. A snapshot of deterministic instrumentation (counts,
// discrepancies, losses) is therefore bitwise identical for any
// DV_THREADS. Wall-clock durations are inherently non-deterministic;
// setting DV_METRICS_DETERMINISTIC=1 freezes the observability clock at
// zero so full snapshots can be diffed bitwise across thread counts.
// Gauges are last-write-wins and must only be set from deterministic
// (single-threaded) program points.
//
// The whole subsystem is gated behind the DV_METRICS environment
// variable (off by default). When disabled, the lookup helpers return
// nullptr and the record helpers return immediately without touching —
// or even creating — any registry state, so instrumented hot paths pay
// one predicted branch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dv::metrics {

namespace detail {
struct registry_access;  // constructs metric instances inside the registry
}

/// True when metric collection is on (DV_METRICS=1 in the environment,
/// or set_enabled(true)).
bool enabled();

/// Overrides the DV_METRICS environment switch (used by tests and tools).
void set_enabled(bool enabled);

/// Nanosecond timestamp from the observability clock: a steady clock
/// normally, constant 0 when DV_METRICS_DETERMINISTIC=1 (or after
/// set_clock_frozen(true)). Spans and latency histograms read time
/// through this so deterministic runs export bitwise-stable snapshots.
std::int64_t now_ns();
void set_clock_frozen(bool frozen);
bool clock_frozen();

// ---------------------------------------------------------------------------
// Metric types. Instances live in the global registry and are never
// moved; pointers returned by the lookup helpers stay valid until
// reset() drops the registry (tests/bench teardown only).

/// Monotonic counter, sharded per thread.
class counter {
 public:
  ~counter();
  void add(std::uint64_t delta = 1);
  /// Sum over all shards.
  std::uint64_t value() const;

 private:
  friend struct detail::registry_access;
  counter();
  counter(const counter&) = delete;
  counter& operator=(const counter&) = delete;
  struct impl;
  impl* impl_;
};

/// Last-write-wins double. Set only from deterministic program points.
class gauge {
 public:
  ~gauge();
  void set(double value);
  double value() const;

 private:
  friend struct detail::registry_access;
  gauge();
  gauge(const gauge&) = delete;
  gauge& operator=(const gauge&) = delete;
  struct impl;
  impl* impl_;
};

/// Fixed-bucket histogram configuration. `bounds` are inclusive upper
/// bounds in ascending order; one overflow bucket (+Inf) is implicit.
/// `scale` is the fixed-point resolution of the sum: ticks per unit
/// (1e9 == nanosecond resolution for values measured in seconds).
struct histogram_options {
  std::vector<double> bounds;
  double scale{1e6};

  /// `count` bounds starting at `start`, each `factor` times the last.
  static histogram_options exponential(double start, double factor,
                                       int count, double scale = 1e6);
  /// `count` bounds evenly spaced over [lo, hi].
  static histogram_options linear(double lo, double hi, int count,
                                  double scale = 1e6);
  /// Latency buckets: 1 µs .. ~16 s, factor 4, nanosecond-resolution sum.
  static histogram_options latency();
};

class histogram {
 public:
  ~histogram();
  /// Counts `value` in its bucket (NaN with +Inf in the overflow bucket)
  /// and adds it to the sum unless its ticks do not fit in int64 (NaN,
  /// ±Inf, |value × scale| >= 2^63).
  void observe(double value);
  /// Total observations (sum over buckets, including overflow).
  std::uint64_t count() const;
  /// Sum of observed values at fixed-point resolution (ticks / scale).
  double sum() const;
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  const std::vector<double>& bounds() const;
  double scale() const;

 private:
  friend struct detail::registry_access;
  explicit histogram(histogram_options options);
  histogram(const histogram&) = delete;
  histogram& operator=(const histogram&) = delete;
  struct impl;
  impl* impl_;
};

// ---------------------------------------------------------------------------
// Registry access. Names follow the Prometheus convention
// (`dv_<subsystem>_<what>_<unit>`, counters end in `_total`) and may
// carry a label block: `dv_detector_score_seconds{detector="kde"}`.
// Each helper registers the series on first use and returns the same
// instance afterwards; a name registered as one kind cannot be fetched
// as another (throws std::logic_error). All helpers return nullptr when
// metrics are disabled, so disabled runs leave the registry empty.

counter* get_counter(std::string_view name);
gauge* get_gauge(std::string_view name);
/// `options` applies on first registration; later lookups ignore it.
histogram* get_histogram(std::string_view name,
                         const histogram_options& options);

/// One-shot record helpers for cold paths (lookup each call).
void count(std::string_view name, std::uint64_t delta = 1);
void set(std::string_view name, double value);
void observe(std::string_view name, const histogram_options& options,
             double value);

// ---------------------------------------------------------------------------
// Snapshots and exporters.

enum class kind { counter, gauge, histogram };

struct sample {
  std::string name;
  metrics::kind kind{kind::counter};
  /// counter (integral) or gauge value; histograms use the fields below.
  double value{0.0};
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries
  std::uint64_t count{0};
  double sum{0.0};
};

struct snapshot {
  std::vector<sample> samples;  // sorted by name

  /// {"version":1,"metrics":[...]} with %.17g doubles (lossless and
  /// deterministic, so equal registries serialize bitwise identically).
  std::string to_json() const;
  /// Prometheus text exposition format (# TYPE lines, _bucket/_sum/_count
  /// expansion for histograms, labels merged with le="...").
  std::string to_prometheus() const;
};

/// Deterministically ordered snapshot of every registered series.
snapshot collect();

/// Number of registered series (0 after reset or when nothing recorded).
std::size_t series_count();

/// Drops every registered series. Only for tests/tools; never call while
/// instrumented code may be running on other threads.
void reset();

/// Writes <dir>/metrics.json and <dir>/metrics.prom (creating <dir> if
/// needed) from a fresh snapshot. Returns false when metrics are
/// disabled or the files cannot be written.
bool write_artifacts(const std::string& dir);

}  // namespace dv::metrics
