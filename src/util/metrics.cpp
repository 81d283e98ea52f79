#include "util/metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/logging.h"

namespace dv::metrics {

namespace detail {
struct registry_access {
  static counter* make_counter() { return new counter; }
  static gauge* make_gauge() { return new gauge; }
  static histogram* make_histogram(const histogram_options& options) {
    return new histogram{options};
  }
};
}  // namespace detail

namespace {

// --------------------------------------------------------------------------
// Enable switch and clock.

constexpr int k_state_unset = -1;

std::atomic<int> g_enabled{k_state_unset};
std::atomic<int> g_frozen{k_state_unset};

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  const std::string s{v};
  return s == "1" || s == "true" || s == "on" || s == "yes";
}

int load_flag(std::atomic<int>& flag, const char* env_name) {
  int v = flag.load(std::memory_order_relaxed);
  if (v == k_state_unset) {
    v = env_flag(env_name) ? 1 : 0;
    int expected = k_state_unset;
    // Another thread may have initialised (or a test overridden) it
    // concurrently; the first write wins.
    if (!flag.compare_exchange_strong(expected, v,
                                      std::memory_order_relaxed)) {
      v = expected;
    }
  }
  return v;
}

// --------------------------------------------------------------------------
// Per-thread shard lanes. A thread keeps one lane id for its lifetime;
// ids wrap modulo k_metric_lanes, so unrelated threads may share a lane —
// the per-lane cells stay atomic for that reason, but in the common case
// (pool of <= 16 workers) every thread owns its lane and increments
// uncontended cachelines.

constexpr int k_metric_lanes = 16;

int metric_lane() {
  static std::atomic<int> next{0};
  thread_local const int lane =
      next.fetch_add(1, std::memory_order_relaxed) % k_metric_lanes;
  return lane;
}

struct alignas(64) lane_u64 {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(64) lane_i64 {
  std::atomic<std::int64_t> value{0};
};

}  // namespace

// --------------------------------------------------------------------------
// Metric implementations.

struct counter::impl {
  lane_u64 lanes[k_metric_lanes];
};

counter::counter() : impl_{new impl} {}

counter::~counter() { delete impl_; }

void counter::add(std::uint64_t delta) {
  impl_->lanes[metric_lane()].value.fetch_add(delta,
                                              std::memory_order_relaxed);
}

std::uint64_t counter::value() const {
  std::uint64_t total = 0;
  for (const auto& lane : impl_->lanes) {
    total += lane.value.load(std::memory_order_relaxed);
  }
  return total;
}

struct gauge::impl {
  std::atomic<double> value{0.0};
};

gauge::gauge() : impl_{new impl} {}

gauge::~gauge() { delete impl_; }

void gauge::set(double value) {
  impl_->value.store(value, std::memory_order_relaxed);
}

double gauge::value() const {
  return impl_->value.load(std::memory_order_relaxed);
}

histogram_options histogram_options::exponential(double start, double factor,
                                                 int count, double scale) {
  histogram_options out;
  out.scale = scale;
  double bound = start;
  for (int i = 0; i < count; ++i) {
    out.bounds.push_back(bound);
    bound *= factor;
  }
  return out;
}

histogram_options histogram_options::linear(double lo, double hi, int count,
                                            double scale) {
  histogram_options out;
  out.scale = scale;
  for (int i = 0; i < count; ++i) {
    out.bounds.push_back(lo + (hi - lo) * (i + 1) /
                                  static_cast<double>(count));
  }
  return out;
}

histogram_options histogram_options::latency() {
  return exponential(1e-6, 4.0, 13, /*scale=*/1e9);
}

struct histogram::impl {
  explicit impl(histogram_options opts) : options{std::move(opts)} {
    if (options.bounds.empty() ||
        !std::is_sorted(options.bounds.begin(), options.bounds.end()) ||
        !(options.scale > 0.0)) {
      throw std::invalid_argument{"histogram: bad options"};
    }
    buckets.reset(new lane_u64[static_cast<std::size_t>(k_metric_lanes) *
                               (options.bounds.size() + 1)]);
  }

  histogram_options options;
  /// Lane-major bucket counts: (bounds+1) cells per lane, each cell a
  /// cacheline of its own, so lanes never share lines. Contention only
  /// matters when > 16 threads wrap onto the same lane.
  std::unique_ptr<lane_u64[]> buckets;
  lane_i64 sums[k_metric_lanes];
};

histogram::histogram(histogram_options options)
    : impl_{new impl{std::move(options)}} {}

histogram::~histogram() { delete impl_; }

void histogram::observe(double value) {
  const auto& bounds = impl_->options.bounds;
  // NaN compares false against every bound; it counts with +Inf in the
  // overflow bucket.
  const std::size_t bucket =
      std::isnan(value)
          ? bounds.size()
          : static_cast<std::size_t>(
                std::lower_bound(bounds.begin(), bounds.end(), value) -
                bounds.begin());
  const int lane = metric_lane();
  impl_->buckets[static_cast<std::size_t>(lane) * (bounds.size() + 1) + bucket]
      .value.fetch_add(1, std::memory_order_relaxed);
  // A value whose ticks do not fit in int64 (NaN, ±Inf, |ticks| >= 2^63)
  // adds nothing to the sum.
  const double scaled = value * impl_->options.scale;
  if (!(std::abs(scaled) < 0x1p63)) return;
  impl_->sums[lane].value.fetch_add(
      static_cast<std::int64_t>(std::llround(scaled)),
      std::memory_order_relaxed);
}

std::uint64_t histogram::count() const {
  const std::size_t cells = static_cast<std::size_t>(k_metric_lanes) *
                            (impl_->options.bounds.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    total += impl_->buckets[i].value.load(std::memory_order_relaxed);
  }
  return total;
}

double histogram::sum() const {
  std::int64_t ticks = 0;
  for (const auto& lane : impl_->sums) {
    ticks += lane.value.load(std::memory_order_relaxed);
  }
  return static_cast<double>(ticks) / impl_->options.scale;
}

std::vector<std::uint64_t> histogram::bucket_counts() const {
  const std::size_t cells = impl_->options.bounds.size() + 1;
  std::vector<std::uint64_t> out(cells, 0);
  for (std::size_t lane = 0; lane < k_metric_lanes; ++lane) {
    for (std::size_t b = 0; b < cells; ++b) {
      out[b] +=
          impl_->buckets[lane * cells + b].value.load(std::memory_order_relaxed);
    }
  }
  return out;
}

const std::vector<double>& histogram::bounds() const {
  return impl_->options.bounds;
}

double histogram::scale() const { return impl_->options.scale; }

// --------------------------------------------------------------------------
// Registry.

namespace {

struct registry_entry {
  metrics::kind kind{kind::counter};
  std::unique_ptr<counter> as_counter;
  std::unique_ptr<gauge> as_gauge;
  std::unique_ptr<histogram> as_histogram;
};

struct registry_state {
  std::mutex mutex;
  /// Ordered map: snapshot iteration is sorted by name for free, and the
  /// order never depends on insertion (hence never on thread count).
  std::map<std::string, registry_entry, std::less<>> entries;  // dv:guarded-by(mutex)
};

registry_state& registry() {
  // Process-wide registry singleton; all mutation goes through its
  // internal mutex / per-thread shards.
  // dv-lint: allow(thread-safety) mutex-guarded singleton
  static registry_state* state = new registry_state;  // never destroyed
  return *state;
}

registry_entry& find_or_create(std::string_view name, metrics::kind kind,
                               const histogram_options* options) {
  auto& state = registry();
  std::lock_guard<std::mutex> lock{state.mutex};
  auto it = state.entries.find(name);
  if (it == state.entries.end()) {
    registry_entry entry;
    entry.kind = kind;
    switch (kind) {
      case kind::counter:
        entry.as_counter.reset(detail::registry_access::make_counter());
        break;
      case kind::gauge:
        entry.as_gauge.reset(detail::registry_access::make_gauge());
        break;
      case kind::histogram:
        entry.as_histogram.reset(detail::registry_access::make_histogram(*options));
        break;
    }
    it = state.entries.emplace(std::string{name}, std::move(entry)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error{"metrics: series '" + std::string{name} +
                           "' already registered with another kind"};
  }
  return it->second;
}

}  // namespace

bool enabled() { return load_flag(g_enabled, "DV_METRICS") == 1; }

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::int64_t now_ns() {
  if (clock_frozen()) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_clock_frozen(bool frozen) {
  g_frozen.store(frozen ? 1 : 0, std::memory_order_relaxed);
}

bool clock_frozen() {
  return load_flag(g_frozen, "DV_METRICS_DETERMINISTIC") == 1;
}

counter* get_counter(std::string_view name) {
  if (!enabled()) return nullptr;
  return find_or_create(name, kind::counter, nullptr).as_counter.get();
}

gauge* get_gauge(std::string_view name) {
  if (!enabled()) return nullptr;
  return find_or_create(name, kind::gauge, nullptr).as_gauge.get();
}

histogram* get_histogram(std::string_view name,
                         const histogram_options& options) {
  if (!enabled()) return nullptr;
  return find_or_create(name, kind::histogram, &options)
      .as_histogram.get();
}

void count(std::string_view name, std::uint64_t delta) {
  if (counter* c = get_counter(name)) c->add(delta);
}

void set(std::string_view name, double value) {
  if (gauge* g = get_gauge(name)) g->set(value);
}

void observe(std::string_view name, const histogram_options& options,
             double value) {
  if (histogram* h = get_histogram(name, options)) h->observe(value);
}

// --------------------------------------------------------------------------
// Snapshots.

snapshot collect() {
  snapshot out;
  auto& state = registry();
  std::lock_guard<std::mutex> lock{state.mutex};
  out.samples.reserve(state.entries.size());
  for (const auto& [name, entry] : state.entries) {
    metrics::sample sample;
    sample.name = name;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case kind::counter:
        sample.value = static_cast<double>(entry.as_counter->value());
        break;
      case kind::gauge:
        sample.value = entry.as_gauge->value();
        break;
      case kind::histogram:
        sample.bounds = entry.as_histogram->bounds();
        sample.buckets = entry.as_histogram->bucket_counts();
        sample.count = entry.as_histogram->count();
        sample.sum = entry.as_histogram->sum();
        break;
    }
    out.samples.push_back(std::move(sample));
  }
  return out;
}

std::size_t series_count() {
  auto& state = registry();
  std::lock_guard<std::mutex> lock{state.mutex};
  return state.entries.size();
}

void reset() {
  auto& state = registry();
  std::lock_guard<std::mutex> lock{state.mutex};
  state.entries.clear();
}

// --------------------------------------------------------------------------
// Exporters.

namespace {

/// %.17g: shortest round-trippable form is not needed, but the output must
/// be deterministic — printf with a fixed format is.
std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Counters export as integers (they are integral by construction).
std::string format_counter(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// Splits `dv_name{a="b"}` into base `dv_name` and labels `a="b"`.
void split_labels(const std::string& name, std::string& base,
                  std::string& labels) {
  const auto brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    base = name;
    labels.clear();
    return;
  }
  base = name.substr(0, brace);
  labels = name.substr(brace + 1, name.size() - brace - 2);
}

const char* kind_name(metrics::kind kind) {
  switch (kind) {
    case kind::counter:
      return "counter";
    case kind::gauge:
      return "gauge";
    case kind::histogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string snapshot::to_json() const {
  std::string out = "{\"version\":1,\"metrics\":[";
  bool first = true;
  for (const auto& s : samples) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"kind\":\"";
    out += kind_name(s.kind);
    out += "\"";
    if (s.kind == kind::histogram) {
      out += ",\"count\":" + std::to_string(s.count);
      out += ",\"sum\":" + format_double(s.sum);
      out += ",\"bounds\":[";
      for (std::size_t i = 0; i < s.bounds.size(); ++i) {
        if (i > 0) out += ",";
        out += format_double(s.bounds[i]);
      }
      out += "],\"buckets\":[";
      for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(s.buckets[i]);
      }
      out += "]";
    } else if (s.kind == kind::counter) {
      out += ",\"value\":" + format_counter(s.value);
    } else {
      out += ",\"value\":" + format_double(s.value);
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string snapshot::to_prometheus() const {
  std::string out;
  std::string last_base;
  for (const auto& s : samples) {
    std::string base, labels;
    split_labels(s.name, base, labels);
    if (base != last_base) {
      out += "# TYPE " + base + " " + kind_name(s.kind) + "\n";
      last_base = base;
    }
    const std::string prefix = labels.empty() ? "" : labels + ",";
    if (s.kind == kind::histogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        cumulative += s.buckets[i];
        const std::string le =
            i < s.bounds.size() ? format_double(s.bounds[i]) : "+Inf";
        out += base + "_bucket{" + prefix + "le=\"" + le + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
      out += base + "_sum" + suffix + " " + format_double(s.sum) + "\n";
      out += base + "_count" + suffix + " " + std::to_string(s.count) + "\n";
    } else {
      const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
      const std::string value = s.kind == kind::counter
                                    ? format_counter(s.value)
                                    : format_double(s.value);
      out += base + suffix + " " + value + "\n";
    }
  }
  return out;
}

bool write_artifacts(const std::string& dir) {
  if (!enabled()) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const snapshot snap = collect();
  const std::string json_path = dir + "/metrics.json";
  const std::string prom_path = dir + "/metrics.prom";
  {
    std::ofstream json{json_path, std::ios::trunc};
    json << snap.to_json();
    if (!json) {
      log_warn() << "metrics: failed to write " << json_path;
      return false;
    }
  }
  {
    std::ofstream prom{prom_path, std::ios::trunc};
    prom << snap.to_prometheus();
    if (!prom) {
      log_warn() << "metrics: failed to write " << prom_path;
      return false;
    }
  }
  log_info() << "metrics: wrote " << snap.samples.size() << " series to "
             << json_path << " and " << prom_path;
  return true;
}

}  // namespace dv::metrics
