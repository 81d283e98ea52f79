// bank_refit: a closed loop of refits of the street bank on the street
// training split. Each refit runs deep_validator::fit, save_snapshot,
// snapshot_view::open, validator_bank_view::from_snapshot and
// engine_handle::publish: the write side of what the other workloads
// read, and the only workload that runs Algorithm 1's filter pass and the
// SMO solver. Inputs are fixed (the fixture's training split), so every
// refit must rebuild the fixture bank bit for bit.
#include <algorithm>
#include <bit>

#include "common.h"
#include "pipeline/config.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr int k_setup_repeats = 21;
constexpr std::int64_t k_check_clean = 32;
constexpr std::int64_t k_filter_batch = 128;  // deep_validator::fit's filter
constexpr std::int64_t k_replay_chunks = 4;

bool same_scores(const validation_scores& a, const validation_scores& b) {
  if (a.joint.size() != b.joint.size() || a.predictions != b.predictions ||
      a.per_layer.size() != b.per_layer.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.joint.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.joint[i]) !=
        std::bit_cast<std::uint64_t>(b.joint[i])) {
      return false;
    }
  }
  return true;
}

struct replayed_fit {
  /// The fitted per-layer validators, to check against the real refit.
  std::vector<layer_validator> layers;
  double smo_iterations{0.0};
  /// Model forward rows per training image (filter pass + extraction).
  double rows_per_image{0.0};
};

/// Algorithm 1's steps as deep_validator::fit takes them, each timed
/// around the public call it makes.
replayed_fit replay_fit(sequential& model, const dataset& train,
                        const deep_validator_config& config, span_log& log) {
  const std::int64_t root = log.open("refit.replay", -1, 0);
  std::vector<std::int64_t> kept;
  {
    scoped_span s{&log, "refit.filter", root, 0};
    for (std::int64_t b = 0; b < train.size(); b += k_filter_batch) {
      const std::int64_t e = std::min(train.size(), b + k_filter_batch);
      const auto preds = model.predict(train.images.slice_rows(b, e));
      for (std::int64_t i = b; i < e; ++i) {
        if (preds[static_cast<std::size_t>(i - b)] ==
            train.labels[static_cast<std::size_t>(i)]) {
          kept.push_back(i);
        }
      }
    }
  }
  // Per-class subsampling, as in deep_validator::fit.
  rng gen{config.seed};
  std::vector<std::vector<std::int64_t>> per_class(
      static_cast<std::size_t>(train.num_classes));
  for (const auto i : kept) {
    per_class[static_cast<std::size_t>(train.labels[static_cast<std::size_t>(i)])]
        .push_back(i);
  }
  kept.clear();
  for (auto& rows : per_class) {
    gen.shuffle_indices(rows.size(), [&](std::size_t a, std::size_t b) {
      std::swap(rows[a], rows[b]);
    });
    const auto cap = static_cast<std::size_t>(config.max_train_per_class);
    if (config.max_train_per_class > 0 && rows.size() > cap) rows.resize(cap);
    kept.insert(kept.end(), rows.begin(), rows.end());
  }
  std::sort(kept.begin(), kept.end());
  const dataset fit_set = train.subset(kept);

  const int probes = model.probe_count();
  const int first = config.last_probes > 0 && config.last_probes < probes
                        ? probes - config.last_probes
                        : 0;
  std::vector<std::vector<tensor>> blocks(static_cast<std::size_t>(probes - first));
  {
    scoped_span s{&log, "refit.extract", root, 0};
    for (std::int64_t b = 0; b < fit_set.size(); b += config.batch.max_batch) {
      const std::int64_t e = std::min(fit_set.size(), b + config.batch.max_batch);
      const activation_batch acts =
          extract_activations(model, fit_set.images.slice_rows(b, e));
      for (int p = first; p < probes; ++p) {
        blocks[static_cast<std::size_t>(p - first)].push_back(
            acts.probe_features(p, config.spatial));
      }
    }
  }
  replayed_fit out;
  out.layers.resize(blocks.size());
  {
    scoped_span s{&log, "svm.fit", root, 0};
    for (std::size_t v = 0; v < out.layers.size(); ++v) {
      const std::int64_t d = blocks[v].front().extent(1);
      tensor features{{fit_set.size(), d}};
      std::int64_t row = 0;
      for (const tensor& block : blocks[v]) {
        std::copy_n(block.data(), block.numel(), features.data() + row * d);
        row += block.extent(0);
      }
      out.layers[v].fit(features, fit_set.labels, fit_set.num_classes,
                        config.svm);
      const layer_validator_view view = out.layers[v].view();
      for (const auto& svm : view.svms()) {
        out.smo_iterations += static_cast<double>(svm.iterations_used());
      }
    }
  }
  log.close(root);
  out.rows_per_image = static_cast<double>(train.size() + fit_set.size()) /
                       static_cast<double>(train.size());
  return out;
}

}  // namespace

run_result run_bank_refit(const options& opt, const fixture_paths& fx) {
  if (opt.out_dir.empty()) throw std::invalid_argument{"bank_refit needs --out"};
  run_result result;
  const auto kind = dataset_kind::street;
  const experiment_config config = standard_config(kind);
  const dataset_bundle data = make_dataset(config.data);
  // The check batch: 32 clean test images and their six transformations.
  const corpus check_set = make_corpus(data.test, k_check_clean);
  const tensor& check = check_set.images;

  offline_stack stack;
  const setup_result setup = setup_offline(
      fx, kind,
      data.test.images.slice_rows(data.test.size() - 16, data.test.size()),
      k_setup_repeats, stack);
  engine_handle handle;
  handle.publish(stack.bank);
  validation_scores expected = stack.bank.evaluate(*stack.model, check);
  if (opt.perturb == "refit") expected.joint[0] += 1e-9;
  const std::string snapshot_path =
      opt.out_dir + "/refit-" + std::to_string(opt.seed) + ".dvsnap";

  span_log log;
  struct phase_stats {
    std::vector<double> refit_ms;
    double cpu_s{0.0};
    double wall_s{0.0};
    double steal{0.0};
    double auroc{0.0};
  };
  // One refit: fit start to the new generation being published. With a
  // log, each public call gets its own span.
  auto refit = [&](span_log* spans, phase_stats& st) {
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    {
      deep_validator bank;
      {
        scoped_span s{spans, "refit.fit", -1, 0};
        bank.fit(*stack.model, data.train, config.validator);
      }
      bank.set_threshold(stack.bank.threshold());
      scoped_span s{spans, "snapshot.write", -1, 0};
      bank.save_snapshot(snapshot_path);
    }
    std::shared_ptr<const snapshot_view> snap;
    {
      scoped_span s{spans, "snapshot.open", -1, 0};
      snap = snapshot_view::open(snapshot_path);
    }
    validator_bank_view view;
    {
      scoped_span s{spans, "bank.from_snapshot", -1, 0};
      view = validator_bank_view::from_snapshot(snap);
    }
    std::uint64_t generation = 0;
    {
      scoped_span s{spans, "engine.publish", -1, 0};
      generation = handle.publish(std::move(view));
    }
    st.refit_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    st.cpu_s += process_cpu_s() - cpu0;

    // The published bank must score the check batch exactly like the
    // fixture bank.
    const auto current = handle.current();
    const validation_scores got = current->bank.evaluate(*stack.model, check);
    ++result.attempted;
    result.check(current->generation == generation && same_scores(got, expected),
                 "refit generation " + std::to_string(generation) +
                     " scores the check batch differently from the fixture");
    st.auroc = check_set.auroc(got.joint);
  };
  auto run_phase = [&](double seconds, span_log* spans) {
    phase_stats st;
    const host_cpu steal0 = host_cpu::sample();
    const std::int64_t t_start = now_ns();
    const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
    do {
      refit(spans, st);
    } while (now_ns() - t_start < budget_ns);
    st.wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
    st.steal = steal_ratio(steal0, host_cpu::sample());
    return st;
  };

  const phase_stats untraced =
      run_phase(opt.trace ? opt.seconds / 2.0 : opt.seconds, nullptr);
  const double rss = peak_rss_mib();
  const auto train_images = static_cast<double>(data.train.size());
  const double refit_s = median(untraced.refit_ms) * 1e-3;
  const double cpu_ms_per_frame =
      untraced.cpu_s * 1e3 /
      (train_images * static_cast<double>(untraced.refit_ms.size()));
  result.note("loop", "closed, one refit at a time");
  result.note("refits", std::to_string(untraced.refit_ms.size()));
  result.note("refit_s", std::to_string(refit_s));
  result.note("input_repeat_share", "0 (the same training split every refit)");
  result.note("host_steal_share", std::to_string(untraced.steal));
  setup.note(result);

  if (!opt.trace) {
    result.set("frames_per_s", train_images / refit_s, "1/s");
    result.set("latency_p50_ms", percentile(untraced.refit_ms, 0.50), "ms");
    result.note("latency_p90_ms", std::to_string(percentile(untraced.refit_ms, 0.90)));
    result.set("cpu_ms_per_frame", cpu_ms_per_frame, "ms");
    result.set("corner_auroc", untraced.auroc, "ratio");
    result.set("ok_ratio",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");
    result.set("setup_s", setup.median.total_s, "s");
    result.set("peak_rss_mb", rss, "MiB");
    return result;
  }

  // Traced: Algorithm 1 replayed step by step, then one refit with a span
  // around each public call. The replayed validators must agree with the
  // bank the refit published.
  run_result traced;
  for (const auto& [name, unit] : per_layer_metric_names()) {
    traced.set(name, 0.0, unit);
  }
  const replayed_fit replayed =
      replay_fit(*stack.model, data.train, config.validator, log);
  const phase_stats st = run_phase(0.0, &log);
  {
    const auto current = handle.current();
    const activation_batch acts = extract_activations(*stack.model, check);
    for (std::size_t v = 0; v < replayed.layers.size(); ++v) {
      const tensor reduced = acts.probe_features(
          current->bank.probe_index(static_cast<int>(v)), current->bank.spatial());
      const auto a = replayed.layers[v].discrepancy_batch(acts.predictions, reduced);
      const auto b =
          current->bank.layers()[v].discrepancy_batch(acts.predictions, reduced);
      ++result.attempted;
      result.check(a.size() == b.size() &&
                       std::equal(a.begin(), a.end(), b.begin(),
                                  [](double x, double y) {
                                    return std::bit_cast<std::uint64_t>(x) ==
                                           std::bit_cast<std::uint64_t>(y);
                                  }),
                   "replayed layer " + std::to_string(v) +
                       " differs from the refit bank");
    }
  }
  traced.attempted = result.attempted;
  traced.failed = result.failed;
  traced.notes = result.notes;
  const double fit_ms = log.total_ms("refit.fit");
  traced.note("replay_coverage", std::to_string(log.min_child_coverage(
                                     "refit.replay")));
  traced.note("replay_share_of_fit",
              std::to_string((log.total_ms("refit.filter") +
                              log.total_ms("refit.extract") +
                              log.total_ms("svm.fit")) /
                             fit_ms));
  traced.set("refit.filter_ms", log.total_ms("refit.filter"), "ms");
  traced.set("refit.extract_ms", log.total_ms("refit.extract"), "ms");
  traced.set("svm.fit_ms", log.total_ms("svm.fit"), "ms");
  traced.set("snapshot.write_ms", log.total_ms("snapshot.write"), "ms");
  traced.set("proc.cores_busy", st.cpu_s / st.wall_s, "cores");
  traced.set("model.load_ms", setup.median.model_load_ms, "ms");
  traced.set("snapshot.open_ms", setup.median.snapshot_open_ms, "ms");
  traced.set("bank.from_snapshot_ms", setup.median.from_snapshot_ms, "ms");
  traced.set("engine.publish_us", log.total_ms("engine.publish") * 1e3, "us");
  traced.set("snapshot.bytes", setup.snapshot_bytes, "bytes");
  traced.set("host.steal_ratio", st.steal, "ratio");
  traced.set("trace.overhead_pct",
             (st.cpu_s * 1e3 / train_images / cpu_ms_per_frame - 1.0) * 100.0,
             "%");
  traced.set("svm.smo_iterations", replayed.smo_iterations, "count");
  std::vector<tensor> replay;
  for (std::int64_t c = 0; c < k_replay_chunks; ++c) {
    replay.push_back(data.train.images.slice_rows(c * k_filter_batch,
                                                  (c + 1) * k_filter_batch));
  }
  const nn_profile profile = replay_layers(*stack.model, replay);
  set_nn_metrics(traced, kind, *stack.model, profile,
                 replayed.rows_per_image);
  log.write(opt.out_dir + "/trace-" + opt.workload + "-" +
            std::to_string(opt.seed) + ".jsonl");
  return traced;
}

}  // namespace perfbench
