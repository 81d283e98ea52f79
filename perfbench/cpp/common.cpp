#include "common.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "eval/metrics.h"
#include "pipeline/config.h"
#include "pipeline/models.h"
#include "util/metrics.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  // VmHWM is the resident high-water mark in kB.
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error{"peak_rss_mib: no VmHWM in /proc/self/status"};
}

host_cpu host_cpu::sample() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream in{"/proc/stat"};
  std::string cpu;
  in >> cpu;
  host_cpu out;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    in >> v;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

double steal_ratio(const host_cpu& before, const host_cpu& after) {
  const auto total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string fixture_paths::model(dataset_kind kind) const {
  return dir + "/model-" + dataset_kind_name(kind) + ".bin";
}

std::string fixture_paths::bank(dataset_kind kind) const {
  return dir + "/bank-" + dataset_kind_name(kind) + ".dvsnap";
}

void fixture_paths::require() const {
  for (const auto kind : {dataset_kind::street, dataset_kind::objects}) {
    for (const auto& path : {model(kind), bank(kind)}) {
      if (!std::filesystem::exists(path)) {
        throw std::runtime_error{"fixture missing: " + path +
                                 " (run.py makes fixtures before timing)"};
      }
    }
  }
}

corpus make_corpus(const dataset& test, std::int64_t clean) {
  const std::vector<transform_chain> transforms = {
      {{transform_kind::brightness, 0.25f, 0.0f}},
      {{transform_kind::contrast, 1.6f, 0.0f}},
      {{transform_kind::rotation, 25.0f, 0.0f}},
      {{transform_kind::shear, 0.25f, 0.1f}},
      {{transform_kind::scale, 0.8f, 0.8f}},
      {{transform_kind::translation, 4.0f, -3.0f}},
  };
  corpus out;
  out.images = tensor{{clean * static_cast<std::int64_t>(1 + transforms.size()),
                       test.channels(), test.height(), test.width()}};
  std::int64_t row = 0;
  for (std::int64_t i = 0; i < clean; ++i) {
    out.images.set_sample(row++, test.images.sample(i));
    out.transformed.push_back(0);
  }
  for (const auto& chain : transforms) {
    for (std::int64_t i = 0; i < clean; ++i) {
      out.images.set_sample(row++, apply_chain(test.images.sample(i), chain));
      out.transformed.push_back(1);
    }
  }
  return out;
}

double corpus::auroc(const std::vector<double>& joint) const {
  std::vector<double> clean;
  std::vector<double> shifted;
  for (std::size_t i = 0; i < joint.size(); ++i) {
    (transformed[i] != 0 ? shifted : clean).push_back(joint[i]);
  }
  return roc_auc(shifted, clean);
}

serve_config stream_serve_config(int max_batch) {
  serve_config config;
  config.batch.max_batch = max_batch;
  config.max_delay = std::chrono::microseconds{1000};
  config.queue_capacity = 256;
  config.on_full = overflow_policy::block;
  return config;
}

namespace {

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

setup_result summarize(const std::vector<setup_timing>& runs,
                       const std::string& snapshot_path) {
  setup_result out;
  out.repeats = static_cast<int>(runs.size());
  auto med = [&](double setup_timing::*field) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.*field);
    return median(v);
  };
  out.median.total_s = med(&setup_timing::total_s);
  out.median.model_load_ms = med(&setup_timing::model_load_ms);
  out.median.snapshot_open_ms = med(&setup_timing::snapshot_open_ms);
  out.median.from_snapshot_ms = med(&setup_timing::from_snapshot_ms);
  out.median.publish_us = med(&setup_timing::publish_us);
  const auto [lo, hi] = std::minmax_element(
      runs.begin(), runs.end(),
      [](const setup_timing& a, const setup_timing& b) {
        return a.total_s < b.total_s;
      });
  out.min_s = lo->total_s;
  out.max_s = hi->total_s;
  out.snapshot_bytes =
      static_cast<double>(std::filesystem::file_size(snapshot_path));
  return out;
}

}  // namespace

setup_result setup_served(const fixture_paths& fx, const tensor& first_batch,
                          const serve_config& config, int repeats,
                          const scorer_factory& make_scorer,
                          served_stack& keep) {
  const auto kind = dataset_kind::street;
  const std::string bank_path = fx.bank(kind);
  std::vector<setup_timing> runs;
  for (int r = 0; r < repeats; ++r) {
    served_stack s;
    setup_timing t;
    const std::int64_t t0 = now_ns();
    s.model = make_model(kind, standard_config(kind).model_seed);
    s.model->load_params(fx.model(kind));
    const std::int64_t t1 = now_ns();
    s.snap = snapshot_view::open(bank_path);
    const std::int64_t t2 = now_ns();
    validator_bank_view bank = validator_bank_view::from_snapshot(s.snap);
    const std::int64_t t3 = now_ns();
    s.handle = std::make_unique<engine_handle>();
    s.handle->publish(std::move(bank));
    const std::int64_t t4 = now_ns();
    // runtime_monitor takes its threshold from an owned validator, so the
    // monitor side loads the same snapshot through the matching loader.
    s.monitor_bank = std::make_unique<deep_validator>(
        deep_validator::load_snapshot(bank_path));
    s.monitor = std::make_unique<runtime_monitor>(*s.model, *s.monitor_bank);
    s.scorer = make_scorer(*s.model, *s.handle);
    s.service = std::make_unique<monitor_service>(*s.scorer, *s.monitor,
                                                  config);
    std::vector<std::future<monitor_verdict>> first;
    for (std::int64_t i = 0; i < first_batch.extent(0); ++i) {
      first.push_back(s.service->submit(first_batch.sample(i)));
    }
    for (auto& f : first) (void)f.get();
    const std::int64_t t5 = now_ns();
    t.total_s = ms_between(t0, t5) * 1e-3;
    t.model_load_ms = ms_between(t0, t1);
    t.snapshot_open_ms = ms_between(t1, t2);
    t.from_snapshot_ms = ms_between(t2, t3);
    t.publish_us = ms_between(t3, t4) * 1e3;
    runs.push_back(t);
    if (r + 1 == repeats) {
      s.service->reset();
      keep = std::move(s);
    } else {
      s.service->shutdown();
    }
  }
  return summarize(runs, bank_path);
}

setup_result setup_offline(const fixture_paths& fx, dataset_kind kind,
                           const tensor& first_batch, int repeats,
                           offline_stack& keep) {
  const std::string bank_path = fx.bank(kind);
  std::vector<setup_timing> runs;
  for (int r = 0; r < repeats; ++r) {
    offline_stack s;
    setup_timing t;
    const std::int64_t t0 = now_ns();
    s.model = make_model(kind, standard_config(kind).model_seed);
    s.model->load_params(fx.model(kind));
    const std::int64_t t1 = now_ns();
    auto snap = snapshot_view::open(bank_path);
    const std::int64_t t2 = now_ns();
    s.bank = validator_bank_view::from_snapshot(std::move(snap));
    const std::int64_t t3 = now_ns();
    (void)s.bank.evaluate(*s.model, first_batch);
    const std::int64_t t4 = now_ns();
    t.total_s = ms_between(t0, t4) * 1e-3;
    t.model_load_ms = ms_between(t0, t1);
    t.snapshot_open_ms = ms_between(t1, t2);
    t.from_snapshot_ms = ms_between(t2, t3);
    runs.push_back(t);
    if (r + 1 == repeats) keep = std::move(s);
  }
  return summarize(runs, bank_path);
}

void setup_result::note(run_result& out) const {
  out.note("setup", std::to_string(repeats) + " set-ups, min " +
                        std::to_string(min_s) + " s, max " +
                        std::to_string(max_s) + " s");
}

// ---------------------------------------------------------------------------
// span_log

int span_log::intern(const std::string& name) {
  const auto [it, inserted] =
      index_.emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::int64_t span_log::open(const std::string& name, std::int64_t parent,
                            std::int64_t id) {
  const std::int64_t now = now_ns();
  return add(name, now, now, parent, id);
}

void span_log::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end = now_ns();
}

std::int64_t span_log::add(const std::string& name, std::int64_t start_ns,
                           std::int64_t end_ns, std::int64_t parent,
                           std::int64_t id) {
  spans_.push_back(span{intern(name), start_ns, end_ns, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

double span_log::total_ms(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return 0.0;
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.name == it->second) total += ms_between(s.start, s.end);
  }
  return total;
}

double span_log::min_child_coverage(const std::string& parent_name) const {
  const auto it = index_.find(parent_name);
  if (it == index_.end()) return 0.0;
  std::map<std::int64_t, std::int64_t> covered;
  for (const auto& s : spans_) {
    if (s.parent >= 0) covered[s.parent] += s.end - s.start;
  }
  double lowest = 1.0;
  bool any = false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    if (s.name != it->second || s.end <= s.start) continue;
    const auto c = covered.find(static_cast<std::int64_t>(i));
    const double share =
        c == covered.end() ? 0.0
                           : static_cast<double>(c->second) /
                                 static_cast<double>(s.end - s.start);
    lowest = std::min(lowest, share);
    any = true;
  }
  return any ? lowest : 0.0;
}

void span_log::write(const std::string& path) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::ofstream out{path};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\""
        << names_[static_cast<std::size_t>(s.name)] << "\",\"start_ns\":"
        << s.start << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id
        << ",\"self_ns\":" << (s.end - s.start - child_ns[i]) << "}\n";
  }
  if (!out) throw std::runtime_error{"cannot write trace " + path};
}

std::vector<std::vector<double>> traced_layers(const validator_bank_view& bank,
                                               const activation_batch& acts,
                                               span_log& log,
                                               std::int64_t parent,
                                               std::int64_t id) {
  const auto layers = static_cast<std::size_t>(bank.validated_layers());
  std::vector<std::vector<double>> disc(layers);
  for (std::size_t v = 0; v < layers; ++v) {
    const std::string tag = "L" + std::to_string(v);
    tensor reduced;
    {
      scoped_span s{&log, "core.reduce." + tag, parent, id};
      reduced = acts.probe_features(bank.probe_index(static_cast<int>(v)),
                                    bank.spatial());
    }
    scoped_span s{&log, "core.discrepancy." + tag, parent, id};
    disc[v] = bank.layers()[v].discrepancy_batch(acts.predictions, reduced);
  }
  return disc;
}

double kernel_evals(const validator_bank_view& bank,
                    const std::vector<std::int64_t>& predictions) {
  double total = 0.0;
  for (const auto pred : predictions) {
    for (const auto& layer : bank.layers()) {
      total += static_cast<double>(
          layer.svms()[static_cast<std::size_t>(pred)].support_count());
    }
  }
  return total;
}

std::pair<double, double> cache_counts(const std::string& label) {
  double hits = 0.0;
  double misses = 0.0;
  for (const auto& s : metrics::collect().samples) {
    if (s.name == "dv_cache_hits_total{cache=\"" + label + "\"}") {
      hits = s.value;
    } else if (s.name == "dv_cache_misses_total{cache=\"" + label + "\"}") {
      misses = s.value;
    }
  }
  return {hits, misses};
}

void set_decision_cache_metrics(run_result& out,
                                std::pair<double, double> before,
                                std::pair<double, double> after) {
  const double hits = after.first - before.first;
  const double misses = after.second - before.second;
  out.set("cache.decision_lookups", hits + misses, "count");
  out.set("cache.decision_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

void set_core_metrics(run_result& out, const span_log& log, double frames) {
  out.set("core.extract_ms_per_frame", log.total_ms("core.extract") / frames,
          "ms");
  double reduce_ms = 0.0;
  for (int v = 0; v < 6; ++v) {
    const std::string tag = "L" + std::to_string(v);
    reduce_ms += log.total_ms("core.reduce." + tag);
    out.set("core.discrepancy." + tag + "_ms_per_frame",
            log.total_ms("core.discrepancy." + tag) / frames, "ms");
  }
  out.set("core.reduce_ms_per_frame", reduce_ms / frames, "ms");
  out.set("core.joint_us_per_frame", log.total_ms("core.joint") * 1e3 / frames,
          "us");
}

// ---------------------------------------------------------------------------
// Results

void run_result::check(bool ok, const std::string& what) {
  if (!ok) {
    // The first few failures say why; the count says how many.
    if (++failed <= 5) std::cerr << "check failed: " << what << "\n";
  }
}

std::string nn_layer_metric(const std::string& model_name, std::size_t i,
                            const std::string& kind) {
  return "nn." + model_name + "." + std::to_string(i) + "_" + kind +
         "_ms_per_frame";
}

std::vector<std::pair<std::string, std::string>> per_layer_metric_names() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.batch_frames_mean", "count"},
      {"serve.complete_ms_p50", "ms"},
      {"serve.busy_ratio", "ratio"},
      {"core.extract_ms_per_frame", "ms"},
      {"core.reduce_ms_per_frame", "ms"},
  };
  for (int v = 0; v < 6; ++v) {
    out.emplace_back("core.discrepancy.L" + std::to_string(v) +
                         "_ms_per_frame",
                     "ms");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"core.joint_us_per_frame", "us"},
      {"core.monitor_apply_us_per_frame", "us"},
      {"cache.activation_hit_ratio", "ratio"},
      {"cache.activation_lookups", "count"},
      {"cache.decision_hit_ratio", "ratio"},
      {"cache.decision_lookups", "count"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  for (const auto kind : {dataset_kind::street, dataset_kind::objects}) {
    const auto model = make_model(kind, 1);
    const std::string name = dataset_kind_name(kind);
    for (std::size_t i = 0; i < model->layer_count(); ++i) {
      out.emplace_back(nn_layer_metric(name, i, model->at(i).name()), "ms");
    }
    out.emplace_back("nn." + name + ".macs_per_frame", "count");
  }
  const std::vector<std::pair<std::string, std::string>> tail = {
      {"svm.kernel_evals_per_frame", "count"},
      {"proc.cores_busy", "cores"},
      {"model.load_ms", "ms"},
      {"snapshot.open_ms", "ms"},
      {"bank.from_snapshot_ms", "ms"},
      {"engine.publish_us", "us"},
      {"snapshot.bytes", "bytes"},
      {"refit.filter_ms", "ms"},
      {"refit.extract_ms", "ms"},
      {"svm.fit_ms", "ms"},
      {"svm.smo_iterations", "count"},
      {"snapshot.write_ms", "ms"},
      {"gen.late_ms_p99", "ms"},
      {"host.steal_ratio", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.scorer_coverage_min", "ratio"},
  };
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

}  // namespace perfbench
