// Serving-layer benchmark: single-frame runtime_monitor::observe baseline
// vs the queue-backed monitor_service at max_batch 1 / 8 / 32, under two
// offered-load shapes:
//   burst — every frame submitted up front, so the worker always finds a
//           full queue and coalesces max_batch frames per evaluate call
//           (peak-throughput shape);
//   paced — frames submitted at ~70% of the baseline frame rate, so the
//           queue stays shallow and the wait histogram shows the
//           max_delay-bounded coalescing window (steady-state shape).
// Reports per-request p50/p99/max latency, frames/sec, speedup over the
// baseline, and the worker-side dv_serve_* histograms (mean batch size,
// mean/p99 queue wait), then writes everything to BENCH_serve.json.
//
// Uses a self-trained tiny CNN on synthetic digits (same shape as the test
// fixture) instead of the artifact cache: the serving layer's costs are
// queueing and batch coalescing, which do not need a paper-scale model.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.h"
#include "data/synth_digits.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "serve/monitor_service.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strong_lru.h"
#include "util/thread_pool.h"

namespace {

using namespace dv;
using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile of an unsorted sample, in the sample's unit.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct latency_stats {
  double p50_ms{0.0};
  double p99_ms{0.0};
  double max_ms{0.0};
};

latency_stats summarize_ms(const std::vector<double>& latencies_s) {
  latency_stats out;
  out.p50_ms = percentile(latencies_s, 0.50) * 1000.0;
  out.p99_ms = percentile(latencies_s, 0.99) * 1000.0;
  for (const double s : latencies_s) out.max_ms = std::max(out.max_ms, s * 1000.0);
  return out;
}

/// Worker-side histograms for one scenario, read back from the metrics
/// registry (reset between scenarios so series do not accumulate).
struct serve_metrics {
  double mean_batch{0.0};
  double wait_mean_ms{0.0};
  /// Upper bound of the first wait bucket whose cumulative share is >= 99%
  /// (latency buckets grow by 4x, so this is a coarse ceiling, not a rank).
  double wait_p99_bucket_ms{0.0};
};

serve_metrics read_serve_metrics() {
  serve_metrics out;
  for (const auto& s : metrics::collect().samples) {
    if (s.name == "dv_serve_batch_size{service=\"monitor\"}" && s.count > 0) {
      out.mean_batch = s.sum / static_cast<double>(s.count);
    }
    if (s.name == "dv_serve_wait_seconds{service=\"monitor\"}" && s.count > 0) {
      out.wait_mean_ms = s.sum / static_cast<double>(s.count) * 1000.0;
      std::uint64_t seen = 0;
      const auto want = static_cast<std::uint64_t>(
          std::ceil(0.99 * static_cast<double>(s.count)));
      for (std::size_t b = 0; b < s.buckets.size(); ++b) {
        seen += s.buckets[b];
        if (seen >= want) {
          out.wait_p99_bucket_ms =
              (b < s.bounds.size() ? s.bounds[b] : s.bounds.back() * 4.0) *
              1000.0;
          break;
        }
      }
    }
  }
  return out;
}

struct scenario_result {
  int max_batch{0};
  std::string mode;
  double offered_fps{0.0};  // 0 = unthrottled burst
  double fps{0.0};
  double speedup{0.0};
  latency_stats latency;
  serve_metrics worker;
};

/// dv_cache_* counter totals for one run (docs/CACHING.md).
struct cache_counters {
  std::uint64_t activation_hits{0};
  std::uint64_t activation_misses{0};
  std::uint64_t decision_hits{0};
  std::uint64_t decision_misses{0};
};

cache_counters read_cache_counters() {
  cache_counters out;
  for (const auto& s : metrics::collect().samples) {
    const auto v = static_cast<std::uint64_t>(s.value);
    if (s.name == "dv_cache_hits_total{cache=\"activation\"}") {
      out.activation_hits = v;
    } else if (s.name == "dv_cache_misses_total{cache=\"activation\"}") {
      out.activation_misses = v;
    } else if (s.name == "dv_cache_hits_total{cache=\"decision\"}") {
      out.decision_hits = v;
    } else if (s.name == "dv_cache_misses_total{cache=\"decision\"}") {
      out.decision_misses = v;
    }
  }
  return out;
}

/// One run of the duplicate-heavy stream: throughput + cache counters.
struct dup_result {
  std::string mode;  // "burst" | "paced"
  bool cached{false};
  double offered_fps{0.0};
  double fps{0.0};
  cache_counters counters;
  serve_metrics worker;
};

/// Tiny CNN + synthetic digits, same shape as the test fixture.
struct bench_world {
  dataset train;
  dataset test;
  std::unique_ptr<sequential> model;
};

bench_world make_world() {
  bench_world w;
  synth_digits_config train_cfg;
  train_cfg.count = 600;
  train_cfg.seed = 1001;
  w.train = make_synth_digits(train_cfg);
  synth_digits_config test_cfg;
  test_cfg.count = 200;
  test_cfg.seed = 2002;
  w.test = make_synth_digits(test_cfg);
  rng gen{31};
  w.model = std::make_unique<sequential>();
  w.model->add(std::make_unique<conv2d>(1, 4, 3, 1, 1, gen));
  w.model->add(std::make_unique<relu>());
  w.model->add(std::make_unique<max_pool2d>(2), /*probe=*/true);
  w.model->add(std::make_unique<conv2d>(4, 8, 3, 1, 1, gen));
  w.model->add(std::make_unique<relu>());
  w.model->add(std::make_unique<max_pool2d>(2), /*probe=*/true);
  w.model->add(std::make_unique<flatten>());
  w.model->add(std::make_unique<dense>(8 * 7 * 7, 32, gen));
  w.model->add(std::make_unique<relu>(), /*probe=*/true);
  w.model->add(std::make_unique<dense>(32, 10, gen));
  train_config tc;
  tc.optimizer = train_config::opt_kind::adam;
  tc.lr = 2e-3f;
  tc.epochs = 5;
  tc.batch_size = 32;
  tc.verbose = false;
  (void)fit(*w.model, w.train.images, w.train.labels, tc);
  return w;
}

/// Sleeps (if pacing) and submits every frame; returns the futures.
std::vector<std::future<monitor_verdict>> submit_all(
    monitor_service& service, const std::vector<tensor>& frames,
    double offered_fps, clock_type::time_point start) {
  std::vector<std::future<monitor_verdict>> futures;
  futures.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (offered_fps > 0.0) {
      const auto due =
          start + std::chrono::duration_cast<clock_type::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / offered_fps));
      std::this_thread::sleep_until(due);
    }
    futures.push_back(service.submit(frames[i]));
  }
  return futures;
}

/// One scenario, measured in two passes over the same service so the
/// numbers do not pollute each other on a small machine:
///  1. throughput — submit + flush with zero per-request instrumentation;
///     fps, speedup, and the worker-side histograms come from this pass;
///  2. latency — a waiter thread timestamps each FIFO completion as it
///     happens, so a frame that finished while later frames were still
///     being submitted is not charged for the rest of the submit loop.
/// offered_fps == 0 means burst (submit as fast as the queue accepts).
scenario_result run_scenario(bench_world& w, const deep_validator& validator,
                             const std::vector<tensor>& frames, int max_batch,
                             double offered_fps, double baseline_fps) {
  metrics::reset();
  scenario_result out;
  out.max_batch = max_batch;
  out.mode = offered_fps > 0.0 ? "paced" : "burst";
  out.offered_fps = offered_fps;

  runtime_monitor monitor{*w.model, validator};
  serve_config cfg;
  cfg.batch.max_batch = max_batch;
  cfg.max_delay = std::chrono::microseconds{500};
  cfg.queue_capacity = frames.size() + 1;  // burst never blocks on submit
  monitor_service service{*w.model, monitor, cfg};
  const std::size_t n = frames.size();

  // Pass 1: throughput.
  const auto start = clock_type::now();
  auto futures = submit_all(service, frames, offered_fps, start);
  service.flush();
  out.fps = static_cast<double>(n) / seconds_between(start, clock_type::now());
  out.speedup = out.fps / baseline_fps;
  out.worker = read_serve_metrics();
  futures.clear();

  // Pass 2: per-request latency.
  std::vector<clock_type::time_point> submitted(n);
  std::vector<clock_type::time_point> completed(n);
  std::vector<std::future<monitor_verdict>> slots(n);
  std::mutex mutex;
  std::condition_variable handed_off;
  std::size_t ready = 0;
  std::thread waiter{[&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock lock{mutex};
        handed_off.wait(lock, [&] { return ready > i; });
      }
      slots[i].wait();
      completed[i] = clock_type::now();
    }
  }};
  const auto latency_start = clock_type::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (offered_fps > 0.0) {
      const auto due = latency_start +
                       std::chrono::duration_cast<clock_type::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) / offered_fps));
      std::this_thread::sleep_until(due);
    }
    submitted[i] = clock_type::now();
    auto fut = service.submit(frames[i]);
    {
      std::lock_guard lock{mutex};
      slots[i] = std::move(fut);
      ready = i + 1;
    }
    handed_off.notify_one();
  }
  waiter.join();
  service.shutdown();
  std::vector<double> latencies_s(n);
  for (std::size_t i = 0; i < n; ++i) {
    latencies_s[i] = seconds_between(submitted[i], completed[i]);
  }
  out.latency = summarize_ms(latencies_s);
  return out;
}

/// Duplicate-heavy stream run (docs/CACHING.md): throughput pass only —
/// the interesting numbers are fps under a fixed offered load and the
/// activation/decision cache hit/miss totals.
dup_result run_duplicate(bench_world& w, const deep_validator& validator,
                         const std::vector<tensor>& frames, int max_batch,
                         double offered_fps, bool cached) {
  set_cache_enabled(cached);
  metrics::reset();
  dup_result out;
  out.mode = offered_fps > 0.0 ? "paced" : "burst";
  out.cached = cached;
  out.offered_fps = offered_fps;

  runtime_monitor monitor{*w.model, validator};
  serve_config cfg;
  cfg.batch.max_batch = max_batch;
  cfg.max_delay = std::chrono::microseconds{500};
  cfg.queue_capacity = frames.size() + 1;  // pacing never blocks on submit
  monitor_service service{*w.model, monitor, cfg};

  const auto start = clock_type::now();
  auto futures = submit_all(service, frames, offered_fps, start);
  service.flush();
  out.fps = static_cast<double>(frames.size()) /
            seconds_between(start, clock_type::now());
  out.counters = read_cache_counters();
  out.worker = read_serve_metrics();
  return out;
}

void write_json(const char* path, int n_frames, int dv_threads,
                double baseline_fps, const latency_stats& baseline_latency,
                const std::vector<scenario_result>& scenarios,
                std::int64_t dup_repeat,
                const std::vector<dup_result>& dup_runs,
                double dup_paced_fps_ratio) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_serve\",\n");
  std::fprintf(f,
               "  \"config\": {\"frames\": %d, \"max_delay_us\": 500, "
               "\"dv_threads\": %d, \"dv_simd_dispatch_level\": \"%s\", "
               "\"dv_cache_capacity\": %llu},\n",
               n_frames, dv_threads,
               std::string{simd_level_name(active_simd_level())}.c_str(),
               static_cast<unsigned long long>(cache_capacity()));
  std::fprintf(f,
               "  \"baseline\": {\"mode\": \"observe_per_frame\", "
               "\"fps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
               "\"max_ms\": %.3f},\n",
               baseline_fps, baseline_latency.p50_ms, baseline_latency.p99_ms,
               baseline_latency.max_ms);
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    std::fprintf(
        f,
        "    {\"max_batch\": %d, \"mode\": \"%s\", \"offered_fps\": %.2f, "
        "\"fps\": %.2f, \"speedup_vs_baseline\": %.3f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"max_ms\": %.3f, \"mean_batch\": %.2f, "
        "\"wait_mean_ms\": %.3f, \"wait_p99_bucket_ms\": %.3f}%s\n",
        s.max_batch, s.mode.c_str(), s.offered_fps, s.fps, s.speedup,
        s.latency.p50_ms, s.latency.p99_ms, s.latency.max_ms,
        s.worker.mean_batch, s.worker.wait_mean_ms, s.worker.wait_p99_bucket_ms,
        i + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"duplicate_stream\": {\"repeat\": %lld, \"max_batch\": 8, "
               "\"paced_fps_ratio_on_vs_off\": %.3f, \"runs\": [\n",
               static_cast<long long>(dup_repeat), dup_paced_fps_ratio);
  for (std::size_t i = 0; i < dup_runs.size(); ++i) {
    const auto& r = dup_runs[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"cache\": \"%s\", \"offered_fps\": %.2f, "
        "\"fps\": %.2f, \"activation_hits\": %llu, "
        "\"activation_misses\": %llu, \"decision_hits\": %llu, "
        "\"decision_misses\": %llu, \"mean_batch\": %.2f}%s\n",
        r.mode.c_str(), r.cached ? "on" : "off", r.offered_fps, r.fps,
        static_cast<unsigned long long>(r.counters.activation_hits),
        static_cast<unsigned long long>(r.counters.activation_misses),
        static_cast<unsigned long long>(r.counters.decision_hits),
        static_cast<unsigned long long>(r.counters.decision_misses),
        r.worker.mean_batch, i + 1 < dup_runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]}\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main() {
  using namespace dv;
  set_log_level(log_level::warn);
  // The worker-side batch/wait histograms are part of the report.
  metrics::set_enabled(true);
  // The classic scenarios run with caching off so their numbers stay
  // comparable to earlier recordings; the duplicate-stream section below
  // toggles the caches explicitly.
  set_cache_enabled(false);

  std::printf("training tiny model...\n");
  bench_world w = make_world();
  deep_validator validator;
  deep_validator_config vcfg;
  vcfg.max_train_per_class = 50;
  validator.fit(*w.model, w.train, vcfg);
  const auto clean = validator.evaluate(*w.model, w.test.images).joint;
  validator.set_threshold(threshold_for_fpr(clean, 0.05));

  constexpr int kFrames = 256;
  std::vector<tensor> frames;
  frames.reserve(kFrames);
  for (int i = 0; i < kFrames; ++i) {
    frames.push_back(w.test.images.sample(i % w.test.size()));
  }

  // Baseline: the pre-serving API, one evaluate call per frame.
  runtime_monitor baseline_monitor{*w.model, validator};
  std::vector<double> baseline_latencies_s(kFrames);
  const auto base_start = clock_type::now();
  for (int i = 0; i < kFrames; ++i) {
    const auto t0 = clock_type::now();
    (void)baseline_monitor.observe(frames[static_cast<std::size_t>(i)]);
    baseline_latencies_s[static_cast<std::size_t>(i)] =
        seconds_between(t0, clock_type::now());
  }
  const double baseline_fps =
      kFrames / seconds_between(base_start, clock_type::now());
  const latency_stats baseline_latency = summarize_ms(baseline_latencies_s);

  std::vector<scenario_result> scenarios;
  for (const int max_batch : {1, 8, 32}) {
    scenarios.push_back(
        run_scenario(w, validator, frames, max_batch, 0.0, baseline_fps));
    scenarios.push_back(run_scenario(w, validator, frames, max_batch,
                                     0.7 * baseline_fps, baseline_fps));
  }

  text_table table{{"Mode", "Offered fps", "fps", "Speedup", "p50 (ms)",
                    "p99 (ms)", "Mean batch", "Wait mean (ms)"}};
  table.add_row({"observe (baseline)", "-", text_table::fmt(baseline_fps, 1),
                 "1.00x", text_table::fmt(baseline_latency.p50_ms, 3),
                 text_table::fmt(baseline_latency.p99_ms, 3), "1.00", "-"});
  for (const auto& s : scenarios) {
    table.add_row(
        {"serve b=" + std::to_string(s.max_batch) + " " + s.mode,
         s.offered_fps > 0.0 ? text_table::fmt(s.offered_fps, 1) : "max",
         text_table::fmt(s.fps, 1), text_table::fmt(s.speedup, 2) + "x",
         text_table::fmt(s.latency.p50_ms, 3),
         text_table::fmt(s.latency.p99_ms, 3),
         text_table::fmt(s.worker.mean_batch, 2),
         text_table::fmt(s.worker.wait_mean_ms, 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "(burst submits all frames up front — per-request latency includes "
      "queueing;\n paced offers 70%% of the baseline frame rate, so wait is "
      "bounded by max_delay)\n");

  // Duplicate-heavy stream (docs/CACHING.md): every distinct frame
  // repeats DV_BENCH_DUP_REPEAT times in a row, like a near-static
  // camera, and the stream cycles over kDupDistinct distinct frames so
  // scenes also recur across batches. Run-length duplicates exercise
  // in-batch dedup; the cross-batch recurrences exercise cache hits.
  // Uncached burst capacity is measured first; the paced pair is then
  // offered 3x that capacity, so the uncached run is capacity-limited
  // while the cached run can follow the offered rate — the fps ratio is
  // the cache's end-to-end win.
  std::int64_t dup_repeat = 8;
  if (const char* raw = std::getenv("DV_BENCH_DUP_REPEAT")) {
    char* end = nullptr;
    const long parsed = std::strtol(raw, &end, 10);
    if (end != raw && *end == '\0' && parsed > 0) dup_repeat = parsed;
  }
  constexpr std::int64_t kDupDistinct = 8;
  std::vector<tensor> dup_frames;
  dup_frames.reserve(kFrames);
  for (int i = 0; i < kFrames; ++i) {
    dup_frames.push_back(w.test.images.sample(
        (i / dup_repeat) % std::min<std::int64_t>(kDupDistinct,
                                                  w.test.size())));
  }
  std::vector<dup_result> dup_runs;
  dup_runs.push_back(
      run_duplicate(w, validator, dup_frames, 8, 0.0, /*cached=*/false));
  dup_runs.push_back(
      run_duplicate(w, validator, dup_frames, 8, 0.0, /*cached=*/true));
  const double dup_offered = 3.0 * dup_runs[0].fps;
  dup_runs.push_back(run_duplicate(w, validator, dup_frames, 8, dup_offered,
                                   /*cached=*/false));
  dup_runs.push_back(run_duplicate(w, validator, dup_frames, 8, dup_offered,
                                   /*cached=*/true));
  const double dup_ratio = dup_runs[3].fps / dup_runs[2].fps;
  set_cache_enabled(true);

  text_table dup_table{{"Mode", "Cache", "Offered fps", "fps", "Act hits",
                        "Act misses", "Dec hits", "Dec misses"}};
  for (const auto& r : dup_runs) {
    dup_table.add_row(
        {r.mode, r.cached ? "on" : "off",
         r.offered_fps > 0.0 ? text_table::fmt(r.offered_fps, 1) : "max",
         text_table::fmt(r.fps, 1),
         std::to_string(r.counters.activation_hits),
         std::to_string(r.counters.activation_misses),
         std::to_string(r.counters.decision_hits),
         std::to_string(r.counters.decision_misses)});
  }
  std::printf("\nduplicate-heavy stream (repeat=%lld, max_batch=8):\n%s",
              static_cast<long long>(dup_repeat),
              dup_table.render().c_str());
  std::printf("paced fps ratio cache on/off: %.2fx\n", dup_ratio);

  write_json("BENCH_serve.json", kFrames, thread_count(), baseline_fps,
             baseline_latency, scenarios, dup_repeat, dup_runs, dup_ratio);
  return 0;
}
