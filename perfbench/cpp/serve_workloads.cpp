// drift_stream and parked_camera: frames served one by one through
// monitor_service over an engine_scorer on a published snapshot bank.
//
// drift_stream is an open loop at a fixed rate over a drifting camera
// (every frame new, so the caches only add cost); parked_camera is a
// closed loop over 16 cameras that each repeat a scene 32 times (about
// 97% repeats, so the caches skip most forwards). One generator thread
// submits frames and collects verdicts; the program's pool and batcher
// threads do the rest.
#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <future>
#include <iostream>
#include <set>
#include <thread>

#include "augment/stream.h"
#include "common.h"
#include "core/activation_cache.h"
#include "eval/metrics.h"
#include "pipeline/config.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strong_lru.h"

namespace perfbench {

namespace {

constexpr int k_setup_repeats = 21;
/// Untimed phase before measuring: caches, pool and allocator settle.
constexpr double k_warm_s = 1.0;
/// The measured phase is cut into windows; rates and latency percentiles
/// are per window and reported as their median across windows, so a
/// burst of host steal moves one window, not the result.
constexpr double k_window_s = 1.0;

/// Mean offered rate. At 100/s the monitor is busy about a third of the
/// time, so queueing stays short and host steal moves latency less.
constexpr double k_drift_rate_fps = 100.0;
constexpr int k_drift_max_batch = 16;

constexpr int k_parked_max_batch = 32;
constexpr int k_parked_in_flight = 64;
constexpr int k_cameras = 16;
constexpr int k_repeats_per_scene = 32;
/// corner_auroc on parked_camera covers this many scenes (or all served
/// scenes when a run serves fewer), so it does not depend on throughput.
constexpr std::int64_t k_parked_auroc_scenes = 2048;

constexpr std::int64_t k_replay_batches = 48;
constexpr std::int64_t k_reference_chunk = 128;

struct frame_record {
  std::int64_t due_ns{0};
  std::int64_t submit_ns{0};
  std::int64_t done_ns{0};
  monitor_verdict verdict{};
  bool ok{false};
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_verdict(const monitor_verdict& a, const monitor_verdict& b) {
  return same_bits(a.discrepancy, b.discrepancy) &&
         a.prediction == b.prediction && a.frame_invalid == b.frame_invalid &&
         a.alarm == b.alarm;
}

/// Benchmark-side scorer of the traced run: calls the public functions
/// engine_scorer::score calls, in the same order, each inside a span, and
/// owns its activation cache so hit and lookup counts come from lru().
class traced_scorer : public batch_scorer {
 public:
  struct batch_info {
    std::int64_t first_frame{0};
    std::int64_t frames{0};
    std::int64_t span{-1};
    std::int64_t entry_ns{0};
    std::int64_t return_ns{0};
    std::int64_t forwarded{0};
  };

  traced_scorer(sequential& model, const engine_handle& handle, span_log& log)
      : model_{model}, handle_{handle}, log_{log} {
    if (cache_enabled()) cache_ = std::make_unique<activation_cache>();
  }

  std::vector<scoring_result> score(const tensor& frames) override {
    batch_info info;
    info.entry_ns = now_ns();
    info.first_frame = frames_seen_;
    info.frames = frames.extent(0);
    frames_seen_ += info.frames;
    const auto id = static_cast<std::int64_t>(batches.size());
    std::vector<scoring_result> out;
    std::shared_ptr<const published_bank> current;
    activation_batch acts;
    {
      scoped_span call{&log_, "serve.score", -1, id};
      info.span = call.index();
      current = handle_.current();
      if (current == nullptr) {
        throw std::logic_error{"traced_scorer: no bank published yet"};
      }
      const validator_bank_view& bank = current->bank;
      const std::size_t inserted_before = inserted();
      {
        scoped_span s{&log_, "core.extract", info.span, id};
        acts = extract_activations_cached(model_, frames, cache_.get());
      }
      info.forwarded = cache_ != nullptr
                           ? static_cast<std::int64_t>(inserted() -
                                                       inserted_before)
                           : info.frames;
      const std::vector<std::vector<double>> disc =
          traced_layers(bank, acts, log_, info.span, id);
      const std::size_t layers = disc.size();
      scoped_span s{&log_, "core.joint", info.span, id};
      // Same fold order and row layout as validator_bank_view::score_into
      // and engine_scorer::score.
      const bool has_weighted = bank.weighted().valid();
      out.resize(static_cast<std::size_t>(info.frames));
      std::vector<double> row_buffer(layers);
      for (std::size_t i = 0; i < out.size(); ++i) {
        auto& row = out[i];
        double joint = 0.0;
        for (std::size_t v = 0; v < layers; ++v) joint += disc[v][i];
        row.joint = joint;
        row.prediction = acts.predictions[i];
        row.invalid = bank.flags_invalid(joint);
        row.generation = current->generation;
        row.per_layer.reserve(layers);
        for (std::size_t v = 0; v < layers; ++v) {
          row.per_layer.push_back(disc[v][i]);
          row_buffer[v] = disc[v][i];
        }
        if (has_weighted) {
          row.weighted = bank.weighted().decision(row_buffer);
          row.has_weighted = true;
        }
      }
    }
    info.return_ns = now_ns();
    kernel_evals_ += perfbench::kernel_evals(current->bank, acts.predictions);
    if (info.forwarded > 0 &&
        static_cast<std::int64_t>(replay_inputs.size()) < k_replay_batches) {
      replay_inputs.push_back(frames.slice_rows(0, info.forwarded));
    }
    batches.push_back(info);
    return out;
  }

  const activation_cache* cache() const { return cache_.get(); }

  std::vector<batch_info> batches;
  /// The first forwarded rows of early batches, kept for the nn replay.
  std::vector<tensor> replay_inputs;
  double kernel_evals() const { return kernel_evals_; }

 private:
  std::size_t inserted() const {
    return cache_ == nullptr
               ? 0
               : cache_->lru().size() +
                     static_cast<std::size_t>(cache_->lru().evictions());
  }

  sequential& model_;
  const engine_handle& handle_;
  span_log& log_;
  std::unique_ptr<activation_cache> cache_;
  std::int64_t frames_seen_{0};
  double kernel_evals_{0.0};
};

/// The frames a workload serves, reproducible from the seed so the
/// reference pass can rebuild them after the timed phase.
class frame_source {
 public:
  frame_source(const dataset& test, std::uint64_t seed, bool parked)
      : parked_{parked} {
    // Both cameras show the test images in a seed-shuffled order.
    std::vector<std::int64_t> order(static_cast<std::size_t>(test.size()));
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::int64_t>(i);
    }
    rng gen{seed};
    gen.shuffle_indices(order.size(), [&](std::size_t a, std::size_t b) {
      std::swap(order[a], order[b]);
    });
    shuffled_ = test.subset(order);
  }

  /// Scene of frame `k` (parked) or frame index (drift).
  std::int64_t scene_of(std::int64_t k) const {
    if (!parked_) return k;
    const std::int64_t camera = k % k_cameras;
    const std::int64_t shot = k / k_cameras;
    return camera + k_cameras * (shot / k_repeats_per_scene);
  }

  /// True when frame `k` is the first of its scene.
  bool new_scene(std::int64_t k) const {
    return (k / k_cameras) % k_repeats_per_scene == 0;
  }

  /// Parked scene `s`: a test image (the seed's permutation of the split)
  /// under an environment that depends on `s` alone, new for every scene.
  tensor scene(std::int64_t s) const {
    rng gen{0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(s)};
    environment_state env;
    env.brightness_bias = static_cast<float>(gen.uniform(-0.25, 0.25));
    env.contrast_gain = static_cast<float>(gen.uniform(0.7, 1.4));
    env.rotation_deg = static_cast<float>(gen.uniform(-20.0, 20.0));
    env.translate_x = static_cast<float>(gen.uniform(-3.0, 3.0));
    env.translate_y = static_cast<float>(gen.uniform(-3.0, 3.0));
    return apply_chain(shuffled_.images.sample(s % shuffled_.size()),
                       env.as_chain());
  }

  std::int64_t scene_label(std::int64_t s) const {
    return shuffled_.labels[static_cast<std::size_t>(s % shuffled_.size())];
  }

  /// Arrival times (ns after the start) of a Poisson stream at the drift
  /// rate over `seconds`: independent cameras behind one queue. The
  /// schedule is the same for every seed, so seeds change what the frames
  /// show, not how they queue.
  static std::vector<std::int64_t> arrivals(double seconds) {
    rng gen{0xa076bca3c6a5d2b1ULL};
    std::vector<std::int64_t> out;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - gen.uniform()) / k_drift_rate_fps;
      if (t >= seconds) return out;
      out.push_back(static_cast<std::int64_t>(t * 1e9));
    }
  }

  /// The drifting camera: environment_stream over the shuffled test split
  /// under a slow drift and a random walk. The walk is the same for every
  /// seed, so seeds differ in which images meet which conditions, not in
  /// how hard the conditions get.
  environment_stream drift_stream() const {
    stream_config config;
    config.drift.brightness_bias = 0.0001f;
    config.drift.rotation_deg = 0.002f;
    config.walk_stddev.brightness_bias = 0.004f;
    config.walk_stddev.contrast_gain = 0.004f;
    config.walk_stddev.rotation_deg = 0.4f;
    config.walk_stddev.translate_x = 0.08f;
    config.walk_stddev.translate_y = 0.08f;
    config.max_rotation = 30.0f;
    config.max_translation = 5.0f;
    return environment_stream{shuffled_, config};
  }

 private:
  bool parked_;
  dataset shuffled_;
};

struct phase_result {
  std::vector<frame_record> records;
  std::vector<std::int64_t> scenes;  // per frame (parked) or frame index
  std::int64_t scenes_made{0};
  std::int64_t measure_begin_ns{0};
  std::int64_t measure_end_ns{0};
  double cpu_s{0.0};
  std::int64_t frames_in_cpu_window{0};
  double steal{0.0};
  double late_p99_ms{0.0};
  double peak_rss_mib{0.0};
};

/// Runs the generator loop against `service` and returns every frame's
/// record. Open loop for drift (frames pre-generated), closed loop for
/// parked (scenes generated on the fly as cameras switch).
phase_result drive(monitor_service& service, const frame_source& source,
                   std::vector<tensor> drift_frames,
                   const std::vector<std::int64_t>& arrivals, bool parked,
                   double seconds) {
  phase_result out;
  std::deque<std::pair<std::int64_t, std::future<monitor_verdict>>> pending;
  auto collect_front = [&] {
    auto& [k, fut] = pending.front();
    frame_record& rec = out.records[static_cast<std::size_t>(k)];
    try {
      rec.verdict = fut.get();
      rec.ok = true;
    } catch (const std::exception& e) {
      std::cerr << "frame " << k << " failed: " << e.what() << "\n";
    }
    rec.done_ns = now_ns();
    pending.pop_front();
  };
  const auto to_tp = [](std::int64_t ns) {
    return steady::time_point{std::chrono::nanoseconds{ns}};
  };

  double cpu0 = 0.0;
  host_cpu steal0;
  std::int64_t done_at_cpu0 = 0;
  std::int64_t done = 0;
  bool measuring = false;
  auto start_measure = [&](std::int64_t at_ns) {
    out.measure_begin_ns = at_ns;
    cpu0 = process_cpu_s();
    steal0 = host_cpu::sample();
    done_at_cpu0 = done;
    measuring = true;
  };

  const std::int64_t start = now_ns() + 2'000'000;
  const auto warm_ns = static_cast<std::int64_t>(k_warm_s * 1e9);
  const auto measure_ns = static_cast<std::int64_t>(seconds * 1e9);
  if (!parked) {
    const auto n_total = static_cast<std::int64_t>(drift_frames.size());
    out.records.resize(static_cast<std::size_t>(n_total));
    for (std::int64_t k = 0; k < n_total; ++k) {
      const std::int64_t due = start + arrivals[static_cast<std::size_t>(k)];
      while (!pending.empty() &&
             pending.front().second.wait_until(to_tp(due)) ==
                 std::future_status::ready) {
        collect_front();
        ++done;
      }
      if (pending.empty()) std::this_thread::sleep_until(to_tp(due));
      if (!measuring && due >= start + warm_ns) start_measure(start + warm_ns);
      frame_record& rec = out.records[static_cast<std::size_t>(k)];
      rec.due_ns = due;
      rec.submit_ns = now_ns();
      out.scenes.push_back(k);
      pending.emplace_back(
          k, service.submit(std::move(drift_frames[static_cast<std::size_t>(k)])));
    }
    out.measure_end_ns = start + warm_ns + measure_ns;
    std::vector<double> late;
    for (const auto& r : out.records) {
      if (r.due_ns >= out.measure_begin_ns) {
        late.push_back(static_cast<double>(r.submit_ns - r.due_ns) * 1e-6);
      }
    }
    out.late_p99_ms = percentile(late, 0.99);
  } else {
    std::vector<tensor> current(k_cameras);
    const std::int64_t end = start + warm_ns + measure_ns;
    std::this_thread::sleep_until(to_tp(start));
    for (std::int64_t k = 0;; ++k) {
      while (static_cast<int>(pending.size()) >= k_parked_in_flight) {
        collect_front();
        ++done;
      }
      const std::int64_t now = now_ns();
      if (!measuring && now >= start + warm_ns) start_measure(start + warm_ns);
      if (now >= end) break;
      const std::int64_t scene = source.scene_of(k);
      const auto camera = static_cast<std::size_t>(k % k_cameras);
      if (source.new_scene(k)) {
        current[camera] = source.scene(scene);
        ++out.scenes_made;
      }
      frame_record rec;
      rec.submit_ns = now_ns();
      rec.due_ns = rec.submit_ns;
      out.records.push_back(rec);
      out.scenes.push_back(scene);
      pending.emplace_back(k, service.submit(current[camera]));
    }
    out.measure_end_ns = end;
  }
  // The measured phase ends with the last due time (drift) or the
  // deadline (parked); frames still in flight complete after it.
  while (!pending.empty() && now_ns() < out.measure_end_ns) {
    collect_front();
    ++done;
  }
  out.cpu_s = process_cpu_s() - cpu0;
  out.steal = steal_ratio(steal0, host_cpu::sample());
  out.frames_in_cpu_window = done - done_at_cpu0;
  out.peak_rss_mib = peak_rss_mib();
  while (!pending.empty()) collect_front();
  return out;
}

/// Per 1 s window of the measured phase: verdicts per second between the
/// window's first and last verdict, and latency percentiles.
struct window_stats {
  std::vector<double> fps;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
};

window_stats windowed(const phase_result& ph) {
  const auto window_ns = static_cast<std::int64_t>(k_window_s * 1e9);
  const auto windows = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (ph.measure_end_ns - ph.measure_begin_ns) /
                                    window_ns));
  struct window {
    std::vector<double> latency_ms;
    std::int64_t first_ns{0};
    std::int64_t last_ns{0};
  };
  std::vector<window> w(windows);
  for (const auto& r : ph.records) {
    if (!r.ok || r.done_ns < ph.measure_begin_ns) continue;
    const auto i =
        static_cast<std::size_t>((r.done_ns - ph.measure_begin_ns) / window_ns);
    if (i >= windows) continue;
    if (w[i].latency_ms.empty()) w[i].first_ns = r.done_ns;
    w[i].last_ns = r.done_ns;
    w[i].latency_ms.push_back(static_cast<double>(r.done_ns - r.due_ns) * 1e-6);
  }
  window_stats out;
  for (const auto& x : w) {
    out.fps.push_back(x.latency_ms.size() >= 2 && x.last_ns > x.first_ns
                          ? static_cast<double>(x.latency_ms.size() - 1) * 1e9 /
                                static_cast<double>(x.last_ns - x.first_ns)
                          : 0.0);
    out.p50_ms.push_back(percentile(x.latency_ms, 0.50));
    out.p90_ms.push_back(percentile(x.latency_ms, 0.90));
  }
  return out;
}

}  // namespace

run_result run_stream(const options& opt, const fixture_paths& fx,
                      bool parked) {
  run_result result;
  const int max_batch = parked ? k_parked_max_batch : k_drift_max_batch;
  const serve_config config = stream_serve_config(max_batch);

  // Inputs: the street test split; the generator sees only frames.
  dataset_split_spec spec = standard_config(dataset_kind::street).data;
  spec.train_size = 1;  // only the test split is used
  const dataset test = make_dataset(spec).test;
  const frame_source source{test, opt.seed, parked};
  // Set-up ends at the first verdicts, one batch of the last clean test
  // images, which no stream frame reproduces byte for byte.
  const tensor first_batch =
      test.images.slice_rows(test.size() - max_batch, test.size());

  const double phase_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  std::vector<tensor> drift_frames;
  std::vector<std::int64_t> drift_labels;
  const std::vector<std::int64_t> arrivals =
      parked ? std::vector<std::int64_t>{}
             : source.arrivals(k_warm_s + phase_seconds);
  auto make_drift_frames = [&] {
    drift_frames.clear();
    drift_labels.clear();
    auto stream = source.drift_stream();
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
      auto f = stream.next();
      drift_frames.push_back(std::move(f.image));
      drift_labels.push_back(f.label);
    }
  };

  auto engine = [](sequential& model, const engine_handle& handle)
      -> std::unique_ptr<batch_scorer> {
    return std::make_unique<engine_scorer>(model, handle);
  };

  // Untraced phase (the whole run unless tracing).
  served_stack stack;
  const setup_result setup =
      setup_served(fx, first_batch, config, k_setup_repeats, engine, stack);
  if (!parked) make_drift_frames();
  if (!parked) {
    // Input property the workload promises: no frame recurs.
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (std::int64_t i = 0; i < first_batch.extent(0); ++i) {
      const tensor f = first_batch.sample(i);
      const auto h = strong_hash::of_bytes(
          f.data(), static_cast<std::size_t>(f.numel()) * sizeof(float));
      seen.emplace(h.hi, h.lo);
    }
    for (const auto& f : drift_frames) {
      const auto h = strong_hash::of_bytes(
          f.data(), static_cast<std::size_t>(f.numel()) * sizeof(float));
      result.check(seen.emplace(h.hi, h.lo).second,
                   "drift_stream input repeats a frame");
    }
  }
  phase_result phase = drive(*stack.service, source, std::move(drift_frames),
                             arrivals, parked, phase_seconds);
  stack.service->flush();

  // Reference: the same frames through validator_bank_view::evaluate on a
  // fresh bank, folded through a fresh runtime_monitor.
  auto check_against_reference = [&](const phase_result& ph,
                                     served_stack& st, double* apply_us) {
    const auto n = static_cast<std::int64_t>(ph.records.size());
    std::int64_t distinct = 0;
    for (const auto s : ph.scenes) distinct = std::max(distinct, s + 1);
    const validator_bank_view ref =
        validator_bank_view::from_snapshot(st.snap);
    std::vector<double> joint(static_cast<std::size_t>(distinct));
    std::vector<std::int64_t> pred(static_cast<std::size_t>(distinct));
    auto stream = source.drift_stream();
    for (std::int64_t b = 0; b < distinct; b += k_reference_chunk) {
      const std::int64_t e = std::min(distinct, b + k_reference_chunk);
      tensor chunk{{e - b, test.channels(), test.height(), test.width()}};
      for (std::int64_t s = b; s < e; ++s) {
        chunk.set_sample(s - b, parked ? source.scene(s) : stream.next().image);
      }
      const auto scores = ref.evaluate(*st.model, chunk);
      for (std::int64_t s = b; s < e; ++s) {
        joint[static_cast<std::size_t>(s)] =
            scores.joint[static_cast<std::size_t>(s - b)];
        pred[static_cast<std::size_t>(s)] =
            scores.predictions[static_cast<std::size_t>(s - b)];
      }
    }
    if (opt.perturb == "verdict" && distinct > 0) {
      joint[static_cast<std::size_t>(distinct / 2)] += 1e-9;
    }
    runtime_monitor monitor{*st.model, *st.monitor_bank};
    std::vector<monitor_verdict> expected(static_cast<std::size_t>(n));
    const std::int64_t t0 = now_ns();
    for (std::int64_t k = 0; k < n; ++k) {
      const auto s =
          static_cast<std::size_t>(ph.scenes[static_cast<std::size_t>(k)]);
      expected[static_cast<std::size_t>(k)] = monitor.apply({joint[s], pred[s]});
    }
    if (apply_us != nullptr && n > 0) {
      *apply_us = static_cast<double>(now_ns() - t0) * 1e-3 /
                  static_cast<double>(n);
    }
    for (std::int64_t k = 0; k < n; ++k) {
      const auto& rec = ph.records[static_cast<std::size_t>(k)];
      ++result.attempted;
      if (!rec.ok ||
          !same_verdict(rec.verdict, expected[static_cast<std::size_t>(k)])) {
        result.check(false, "served verdict of frame " + std::to_string(k) +
                                " differs from the reference");
      }
    }
    // corner_auroc: joint discrepancy of misclassified against correctly
    // classified frames (drift) or scenes (parked).
    const std::int64_t scored =
        parked ? std::min(distinct, k_parked_auroc_scenes) : distinct;
    std::vector<double> wrong;
    std::vector<double> right;
    for (std::int64_t s = 0; s < scored; ++s) {
      const std::int64_t label =
          parked ? source.scene_label(s)
                 : drift_labels[static_cast<std::size_t>(s)];
      (pred[static_cast<std::size_t>(s)] != label ? wrong : right)
          .push_back(joint[static_cast<std::size_t>(s)]);
    }
    return std::pair<double, double>{
        wrong.empty() || right.empty() ? 0.0 : roc_auc(wrong, right),
        static_cast<double>(scored)};
  };

  double monitor_apply_us = 0.0;
  const auto [auroc, auroc_samples] =
      check_against_reference(phase, stack, &monitor_apply_us);
  const window_stats stats = windowed(phase);
  const double cpu_ms_per_frame =
      phase.cpu_s * 1e3 /
      static_cast<double>(std::max<std::int64_t>(1, phase.frames_in_cpu_window));
  const double wall_s =
      static_cast<double>(phase.measure_end_ns - phase.measure_begin_ns) * 1e-9;
  const double repeat_share =
      parked ? 1.0 - static_cast<double>(phase.scenes_made) /
                         static_cast<double>(phase.records.size())
             : 0.0;
  result.note("loop", parked ? "closed, 64 in flight, max_batch 32"
                             : "open, Poisson arrivals at " +
                                   std::to_string(k_drift_rate_fps) +
                                   "/s, max_batch 16");
  result.note("frames_served", std::to_string(phase.records.size()));
  result.note("input_repeat_share", std::to_string(repeat_share));
  result.note("host_steal_share", std::to_string(phase.steal));
  result.note("generator_late_ms_p99", std::to_string(phase.late_p99_ms));
  setup.note(result);
  result.note("corner_auroc_samples", std::to_string(auroc_samples));
  result.set("frames_per_s", median(stats.fps), "1/s");
  result.set("latency_p50_ms", median(stats.p50_ms), "ms");
  result.note("latency_p90_ms", std::to_string(median(stats.p90_ms)));
  result.set("cpu_ms_per_frame", cpu_ms_per_frame, "ms");
  result.set("corner_auroc", auroc, "ratio");
  result.set("setup_s", setup.median.total_s, "s");
  result.set("peak_rss_mb", phase.peak_rss_mib, "MiB");

  if (!opt.trace) {
    result.set("ok_ratio",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");
    return result;
  }

  // Traced phase: the same workload through the benchmark-side scorer.
  const double untraced_cpu_ms = cpu_ms_per_frame;
  span_log log;
  traced_scorer* traced = nullptr;
  auto make_traced = [&](sequential& model, const engine_handle& handle)
      -> std::unique_ptr<batch_scorer> {
    auto s = std::make_unique<traced_scorer>(model, handle, log);
    traced = s.get();
    return s;
  };
  served_stack tstack;
  (void)setup_served(fx, first_batch, config, 1, make_traced, tstack);
  log.clear();
  traced->batches.clear();
  traced->replay_inputs.clear();
  const auto lookups_before = [&] {
    const auto* c = traced->cache();
    return c == nullptr ? std::pair<double, double>{0.0, 0.0}
                        : std::pair<double, double>{
                              static_cast<double>(c->lru().hits()),
                              static_cast<double>(c->lru().misses())};
  }();
  const double evals_before = traced->kernel_evals();
  metrics::set_enabled(true);
  const auto decision_before = cache_counts("decision");
  if (!parked) make_drift_frames();
  // The set-up batch went through the scorer; ids restart at the stream.
  const std::int64_t setup_frames = first_batch.extent(0);
  phase_result tphase = drive(*tstack.service, source,
                              std::move(drift_frames), arrivals, parked,
                              phase_seconds);
  tstack.service->flush();
  const auto decision_after = cache_counts("decision");
  metrics::set_enabled(false);
  (void)check_against_reference(tphase, tstack, nullptr);

  const auto& batches = traced->batches;
  std::vector<double> queue_wait;
  std::vector<double> complete;
  double busy_ns = 0.0;
  std::int64_t frames_in = 0;
  std::int64_t forwarded = 0;
  for (const auto& b : batches) {
    forwarded += b.forwarded;
    for (std::int64_t f = b.first_frame; f < b.first_frame + b.frames; ++f) {
      const std::int64_t k = f - setup_frames;
      const auto& rec = tphase.records[static_cast<std::size_t>(k)];
      log.add("serve.queue_wait", rec.submit_ns, b.entry_ns, -1, k);
      log.add("serve.complete", b.return_ns, rec.done_ns, -1, k);
      if (rec.done_ns < tphase.measure_begin_ns ||
          rec.done_ns >= tphase.measure_end_ns) {
        continue;
      }
      queue_wait.push_back(static_cast<double>(b.entry_ns - rec.submit_ns) * 1e-6);
      complete.push_back(static_cast<double>(rec.done_ns - b.return_ns) * 1e-6);
    }
    frames_in += b.frames;
    if (b.entry_ns >= tphase.measure_begin_ns &&
        b.return_ns <= tphase.measure_end_ns) {
      busy_ns += static_cast<double>(b.return_ns - b.entry_ns);
    }
  }
  const double frames = static_cast<double>(std::max<std::int64_t>(1, frames_in));
  const double traced_cpu_ms =
      tphase.cpu_s * 1e3 /
      static_cast<double>(std::max<std::int64_t>(1, tphase.frames_in_cpu_window));

  run_result traced_result;
  traced_result.attempted = result.attempted;
  traced_result.failed = result.failed;
  traced_result.notes = result.notes;
  for (const auto& [name, unit] : per_layer_metric_names()) {
    traced_result.set(name, 0.0, unit);
  }
  traced_result.set("serve.queue_wait_ms_p50", percentile(queue_wait, 0.5), "ms");
  traced_result.set("serve.batch_frames_mean",
                    frames / static_cast<double>(std::max<std::size_t>(1, batches.size())),
                    "count");
  traced_result.set("serve.complete_ms_p50", percentile(complete, 0.5), "ms");
  traced_result.set("serve.busy_ratio", busy_ns * 1e-9 / wall_s, "ratio");
  set_core_metrics(traced_result, log, frames);
  traced_result.set("core.monitor_apply_us_per_frame", monitor_apply_us, "us");
  if (const auto* c = traced->cache()) {
    const double hits = static_cast<double>(c->lru().hits()) - lookups_before.first;
    const double misses =
        static_cast<double>(c->lru().misses()) - lookups_before.second;
    traced_result.set("cache.activation_lookups", hits + misses, "count");
    traced_result.set("cache.activation_hit_ratio",
                      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  }
  set_decision_cache_metrics(traced_result, decision_before, decision_after);
  traced_result.set("svm.kernel_evals_per_frame", (traced->kernel_evals() - evals_before) / frames,
                    "count");
  traced_result.set("proc.cores_busy", tphase.cpu_s / wall_s, "cores");
  traced_result.set("model.load_ms", setup.median.model_load_ms, "ms");
  traced_result.set("snapshot.open_ms", setup.median.snapshot_open_ms, "ms");
  traced_result.set("bank.from_snapshot_ms", setup.median.from_snapshot_ms, "ms");
  traced_result.set("engine.publish_us", setup.median.publish_us, "us");
  traced_result.set("snapshot.bytes", setup.snapshot_bytes, "bytes");
  traced_result.set("gen.late_ms_p99", tphase.late_p99_ms, "ms");
  traced_result.set("host.steal_ratio", tphase.steal, "ratio");
  traced_result.set("trace.overhead_pct",
                    (traced_cpu_ms / untraced_cpu_ms - 1.0) * 100.0, "%");
  traced_result.set("trace.scorer_coverage_min",
                    log.min_child_coverage("serve.score"), "ratio");
  const nn_profile profile = replay_layers(*tstack.model, traced->replay_inputs);
  set_nn_metrics(traced_result, dataset_kind::street, *tstack.model, profile,
                 static_cast<double>(forwarded) / frames);
  if (!opt.out_dir.empty()) {
    log.write(opt.out_dir + "/trace-" + opt.workload + "-" +
              std::to_string(opt.seed) + ".jsonl");
  }
  return traced_result;
}

}  // namespace perfbench
