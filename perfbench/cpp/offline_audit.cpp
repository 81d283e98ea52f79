// offline_audit: closed-loop batch scoring of a fixed corpus with the
// objects DenseNet and its standard bank, no serving layer (the paper's
// Table VI use). The corpus is the first test images, clean and under the
// paper's six transformations; each pass scores it in a seed-shuffled
// order, one validator_bank_view::evaluate call per chunk.
#include <algorithm>
#include <bit>
#include <numeric>

#include "common.h"
#include "pipeline/config.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr int k_setup_repeats = 21;
constexpr std::int64_t k_clean_images = 96;
constexpr std::int64_t k_chunk = 32;
constexpr std::int64_t k_replay_chunks = 8;

tensor gather(const tensor& images, const std::vector<std::int64_t>& rows,
              std::int64_t begin, std::int64_t end) {
  tensor out{{end - begin, images.extent(1), images.extent(2),
              images.extent(3)}};
  for (std::int64_t i = begin; i < end; ++i) {
    out.set_sample(i - begin, images.sample(rows[static_cast<std::size_t>(i)]));
  }
  return out;
}

}  // namespace

run_result run_offline_audit(const options& opt, const fixture_paths& fx) {
  run_result result;
  const auto kind = dataset_kind::objects;
  dataset_split_spec spec = standard_config(kind).data;
  spec.train_size = 1;  // only the test split is used
  const dataset test = make_dataset(spec).test;
  const corpus data = make_corpus(test, k_clean_images);
  const std::int64_t n = data.images.extent(0);

  offline_stack stack;
  const setup_result setup = setup_offline(
      fx, kind, test.images.slice_rows(test.size() - k_chunk, test.size()),
      k_setup_repeats, stack);

  rng order_gen{opt.seed};
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  auto shuffle = [&] {
    std::iota(order.begin(), order.end(), 0);
    order_gen.shuffle_indices(order.size(), [&](std::size_t a, std::size_t b) {
      std::swap(order[a], order[b]);
    });
  };

  // Pass 0 fixes each image's reference score; every later pass, in its
  // own order, must reproduce it bit for bit.
  std::vector<double> ref_joint(static_cast<std::size_t>(n));
  std::vector<std::int64_t> ref_pred(static_cast<std::size_t>(n));
  span_log log;
  std::vector<tensor> replay;
  double evals = 0.0;
  bool tracing = false;
  auto score_chunk = [&](const tensor& chunk, std::int64_t id) {
    if (!tracing) return stack.bank.evaluate(*stack.model, chunk);
    // Traced: the steps evaluate() takes, each in a span.
    validation_scores out;
    scoped_span call{&log, "audit.score", -1, id};
    activation_batch acts;
    {
      scoped_span s{&log, "core.extract", call.index(), id};
      acts = extract_activations(*stack.model, chunk);
    }
    out.per_layer = traced_layers(stack.bank, acts, log, call.index(), id);
    scoped_span s{&log, "core.joint", call.index(), id};
    out.joint.assign(out.per_layer.front().size(), 0.0);
    for (std::size_t i = 0; i < out.joint.size(); ++i) {
      for (const auto& layer : out.per_layer) out.joint[i] += layer[i];
    }
    out.predictions = acts.predictions;
    return out;
  };

  struct phase_stats {
    std::vector<double> call_ms;
    std::vector<double> pass_fps;
    double cpu_s{0.0};
    double wall_s{0.0};
    double steal{0.0};
    std::int64_t images{0};
  };
  bool have_reference = false;
  auto run_phase = [&](double seconds) {
    phase_stats st;
    const host_cpu steal0 = host_cpu::sample();
    const std::int64_t t_start = now_ns();
    const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
    for (int pass = 0; pass < 2 || now_ns() - t_start < budget_ns; ++pass) {
      shuffle();
      const double cpu0 = process_cpu_s();
      const std::int64_t p0 = now_ns();
      for (std::int64_t b = 0; b < n; b += k_chunk) {
        const std::int64_t e = std::min(n, b + k_chunk);
        const tensor chunk = gather(data.images, order, b, e);
        const std::int64_t c0 = now_ns();
        const validation_scores s = score_chunk(chunk, b / k_chunk);
        st.call_ms.push_back(static_cast<double>(now_ns() - c0) * 1e-6);
        if (tracing) {
          evals += kernel_evals(stack.bank, s.predictions);
          if (static_cast<std::int64_t>(replay.size()) < k_replay_chunks) {
            replay.push_back(chunk);
          }
        }
        for (std::int64_t i = b; i < e; ++i) {
          const auto row =
              static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
          const auto k = static_cast<std::size_t>(i - b);
          if (!have_reference) {
            ref_joint[row] = s.joint[k];
            ref_pred[row] = s.predictions[k];
            continue;
          }
          ++result.attempted;
          if (std::bit_cast<std::uint64_t>(s.joint[k]) !=
                  std::bit_cast<std::uint64_t>(ref_joint[row]) ||
              s.predictions[k] != ref_pred[row]) {
            result.check(false, "audit score of image " + std::to_string(row) +
                                    " changed between passes");
          }
        }
      }
      st.cpu_s += process_cpu_s() - cpu0;
      st.images += n;
      st.pass_fps.push_back(static_cast<double>(n) * 1e9 /
                            static_cast<double>(now_ns() - p0));
      if (!have_reference && opt.perturb == "audit") ref_joint[0] += 1e-9;
      have_reference = true;
    }
    st.wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
    st.steal = steal_ratio(steal0, host_cpu::sample());
    return st;
  };

  const phase_stats untraced =
      run_phase(opt.trace ? opt.seconds / 2.0 : opt.seconds);
  const double rss = peak_rss_mib();
  const double cpu_ms_per_frame =
      untraced.cpu_s * 1e3 / static_cast<double>(untraced.images);

  result.note("loop", "closed, chunks of 32, corpus of " + std::to_string(n) +
                          " images");
  const auto passes = static_cast<double>(untraced.pass_fps.size());
  result.note("passes", std::to_string(untraced.pass_fps.size()));
  result.note("input_repeat_share", std::to_string(1.0 - 1.0 / passes));
  result.note("host_steal_share", std::to_string(untraced.steal));
  setup.note(result);

  if (!opt.trace) {
    result.set("frames_per_s", median(untraced.pass_fps), "1/s");
    result.set("latency_p50_ms", percentile(untraced.call_ms, 0.50), "ms");
    result.note("latency_p90_ms", std::to_string(percentile(untraced.call_ms, 0.90)));
    result.set("cpu_ms_per_frame", cpu_ms_per_frame, "ms");
    result.set("corner_auroc", data.auroc(ref_joint), "ratio");
    result.set("ok_ratio",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");
    result.set("setup_s", setup.median.total_s, "s");
    result.set("peak_rss_mb", rss, "MiB");
    return result;
  }

  tracing = true;
  metrics::set_enabled(true);
  const auto decision_before = cache_counts("decision");
  const phase_stats st = run_phase(opt.seconds / 2.0);
  const auto decision_after = cache_counts("decision");
  metrics::set_enabled(false);

  run_result traced;
  traced.attempted = result.attempted;
  traced.failed = result.failed;
  traced.notes = result.notes;
  for (const auto& [name, unit] : per_layer_metric_names()) {
    traced.set(name, 0.0, unit);
  }
  const auto frames = static_cast<double>(st.images);
  set_core_metrics(traced, log, frames);
  set_decision_cache_metrics(traced, decision_before, decision_after);
  traced.set("svm.kernel_evals_per_frame", evals / frames, "count");
  traced.set("proc.cores_busy", st.cpu_s / st.wall_s, "cores");
  traced.set("model.load_ms", setup.median.model_load_ms, "ms");
  traced.set("snapshot.open_ms", setup.median.snapshot_open_ms, "ms");
  traced.set("bank.from_snapshot_ms", setup.median.from_snapshot_ms, "ms");
  traced.set("snapshot.bytes", setup.snapshot_bytes, "bytes");
  traced.set("host.steal_ratio", st.steal, "ratio");
  traced.set("trace.overhead_pct",
             (st.cpu_s * 1e3 / frames / cpu_ms_per_frame - 1.0) * 100.0, "%");
  traced.set("trace.scorer_coverage_min", log.min_child_coverage("audit.score"),
             "ratio");
  const nn_profile profile = replay_layers(*stack.model, replay);
  set_nn_metrics(traced, kind, *stack.model, profile, 1.0);
  if (!opt.out_dir.empty()) {
    log.write(opt.out_dir + "/trace-" + opt.workload + "-" +
              std::to_string(opt.seed) + ".jsonl");
  }
  return traced;
}

}  // namespace perfbench
