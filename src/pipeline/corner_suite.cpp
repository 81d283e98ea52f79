#include "pipeline/corner_suite.h"

#include <stdexcept>

#include "util/flat_snapshot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace dv {

namespace {
/// Version of the suite/ sections written by corner_suite::save.
constexpr std::int64_t k_suite_format = 1;

void save_dataset(snapshot_writer& w, const std::string& prefix,
                  const dataset& d) {
  d.images.save_snapshot(w, prefix + "images/");
  w.add_i64(prefix + "labels", d.labels);
  w.add_i64_scalar(prefix + "num_classes", d.num_classes);
  w.add_bytes(prefix + "name", d.name.data(), d.name.size());
}

std::string load_string(const snapshot_view& snap, const std::string& name) {
  const auto bytes = snap.bytes(name);
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

dataset load_dataset(const snapshot_view& snap, const std::string& prefix) {
  dataset d;
  d.images = tensor::load_snapshot(snap, prefix + "images/");
  const auto labels = snap.i64(prefix + "labels");
  d.labels.assign(labels.begin(), labels.end());
  d.num_classes = static_cast<int>(snap.i64_scalar(prefix + "num_classes"));
  d.name = load_string(snap, prefix + "name");
  if (static_cast<std::int64_t>(d.labels.size()) != d.size()) {
    throw serialize_error{"corner suite: label count mismatch in " + prefix};
  }
  return d;
}

void save_chain(snapshot_writer& w, const std::string& prefix,
                const transform_chain& chain) {
  std::vector<std::int64_t> kinds;
  std::vector<float> params;
  for (const auto& step : chain) {
    kinds.push_back(static_cast<std::int64_t>(step.kind));
    params.push_back(step.p1);
    params.push_back(step.p2);
  }
  w.add_i64(prefix + "chain_kinds", kinds);
  w.add_f32(prefix + "chain_params", params);
}

transform_chain load_chain(const snapshot_view& snap,
                           const std::string& prefix) {
  const auto kinds = snap.i64(prefix + "chain_kinds");
  const auto params = snap.f32(prefix + "chain_params");
  if (params.size() != 2 * kinds.size()) {
    throw serialize_error{"corner suite: bad transform chain in " + prefix};
  }
  transform_chain chain(kinds.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    chain[i].kind = static_cast<transform_kind>(kinds[i]);
    chain[i].p1 = params[2 * i];
    chain[i].p2 = params[2 * i + 1];
  }
  return chain;
}

std::string suite_path(const experiment_config& config) {
  return artifact_directory() + "/corners-" +
         dataset_kind_name(config.data.kind) + ".dvsnap";
}
}  // namespace

namespace {
dataset filter_cases(const corner_entry& entry, bool want_misclassified) {
  std::vector<std::int64_t> rows;
  for (std::int64_t i = 0; i < entry.cases.size(); ++i) {
    const bool miss = entry.misclassified[static_cast<std::size_t>(i)] != 0;
    if (miss == want_misclassified) rows.push_back(i);
  }
  return entry.cases.subset(rows);
}
}  // namespace

dataset corner_entry::sccs() const { return filter_cases(*this, true); }

dataset corner_entry::fccs() const { return filter_cases(*this, false); }

dataset corner_suite::pooled_sccs() const {
  dataset out;
  bool first = true;
  std::int64_t total = 0;
  for (const auto& e : entries) {
    if (!e.usable) continue;
    for (const auto m : e.misclassified) total += m;
  }
  std::int64_t cursor = 0;
  for (const auto& e : entries) {
    if (!e.usable) continue;
    for (std::int64_t i = 0; i < e.cases.size(); ++i) {
      if (!e.misclassified[static_cast<std::size_t>(i)]) continue;
      if (first) {
        std::vector<std::int64_t> shape = e.cases.images.shape();
        shape[0] = total;
        out.images = tensor{shape};
        out.num_classes = e.cases.num_classes;
        out.name = seeds.name + ":pooled_sccs";
        out.labels.reserve(static_cast<std::size_t>(total));
        first = false;
      }
      out.images.set_sample(cursor++, e.cases.images.sample(i));
      out.labels.push_back(e.cases.labels[static_cast<std::size_t>(i)]);
    }
  }
  return out;
}

int corner_suite::usable_count() const {
  int n = 0;
  for (const auto& e : entries) n += e.usable ? 1 : 0;
  return n;
}

void corner_suite::save(const std::string& path) const {
  snapshot_writer w;
  w.add_i64_scalar("suite/format", k_suite_format);
  w.add_i64_scalar("suite/entries", static_cast<std::int64_t>(entries.size()));
  save_dataset(w, "seeds/", seeds);
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const corner_entry& e = entries[k];
    const std::string prefix = "e" + std::to_string(k) + "/";
    const std::int64_t meta_i[3] = {static_cast<std::int64_t>(e.kind),
                                    e.combined ? 1 : 0, e.usable ? 1 : 0};
    const double meta_f[2] = {e.success_rate, e.mean_confidence};
    w.add_i64(prefix + "meta_i", meta_i);
    w.add_f64(prefix + "meta_f", meta_f);
    save_chain(w, prefix, e.chain);
    w.add_bytes(prefix + "range", e.range_description.data(),
                e.range_description.size());
    save_dataset(w, prefix + "cases/", e.cases);
    w.add_bytes(prefix + "misclassified", e.misclassified.data(),
                e.misclassified.size());
  }
  w.finish(path);
}

corner_suite corner_suite::load(const std::string& path) {
  const auto snap = snapshot_view::open(path);
  if (!snap->has("suite/format") ||
      snap->i64_scalar("suite/format") != k_suite_format) {
    throw serialize_error{"corner suite: " + path +
                          " is not a corner-suite snapshot"};
  }
  const std::int64_t count = snap->i64_scalar("suite/entries");
  if (count < 0) throw serialize_error{"corner suite: bad entry count"};
  corner_suite out;
  out.seeds = load_dataset(*snap, "seeds/");
  out.entries.resize(static_cast<std::size_t>(count));
  for (std::size_t k = 0; k < out.entries.size(); ++k) {
    corner_entry& e = out.entries[k];
    const std::string prefix = "e" + std::to_string(k) + "/";
    const auto meta_i = snap->i64(prefix + "meta_i");
    const auto meta_f = snap->f64(prefix + "meta_f");
    if (meta_i.size() != 3 || meta_f.size() != 2) {
      throw serialize_error{"corner suite: bad metadata in " + prefix};
    }
    e.kind = static_cast<transform_kind>(meta_i[0]);
    e.combined = meta_i[1] != 0;
    e.usable = meta_i[2] != 0;
    e.success_rate = meta_f[0];
    e.mean_confidence = meta_f[1];
    e.chain = load_chain(*snap, prefix);
    e.range_description = load_string(*snap, prefix + "range");
    e.cases = load_dataset(*snap, prefix + "cases/");
    const auto flags = snap->bytes(prefix + "misclassified");
    e.misclassified.assign(flags.begin(), flags.end());
    if (static_cast<std::int64_t>(e.misclassified.size()) != e.cases.size()) {
      throw serialize_error{"corner suite: flag count mismatch in " + prefix};
    }
  }
  return out;
}

corner_suite load_or_generate_corners(const experiment_config& config,
                                      sequential& model, const dataset& test) {
  const std::string path = suite_path(config);
  if (file_exists(path)) {
    log_info() << "loaded cached corner suite from " << path;
    metrics::count("dv_corner_suite_cache_hits_total");
    return corner_suite::load(path);
  }

  stopwatch timer;
  trace_span search_span{"corner.search"};
  corner_suite suite;
  suite.seeds = select_seeds(model, test, config.seed_images,
                             config.seed_selection_seed);

  std::vector<transform_chain> usable_singles;
  for (const auto kind : applicable_transforms(config.data.kind)) {
    trace_span transform_span{"corner.search_transform"};
    const auto space = standard_search_space(kind, config.data.kind);
    corner_search_result res =
        search_corner_cases(model, suite.seeds, space);
    metrics::count("dv_corner_transforms_searched_total");
    corner_entry entry;
    entry.kind = kind;
    entry.usable = res.usable;
    entry.chain = res.chosen;
    entry.success_rate = res.success_rate;
    entry.mean_confidence = res.mean_confidence;
    entry.range_description = space.range_description;
    entry.cases = std::move(res.corner_cases);
    entry.misclassified = std::move(res.misclassified);
    log_info() << "corner search " << transform_kind_name(kind) << ": "
               << (entry.usable ? describe_chain(entry.chain) : "unusable")
               << " success " << entry.success_rate;
    if (entry.usable) usable_singles.push_back(entry.chain);
    suite.entries.push_back(std::move(entry));
  }

  // Combined transformation (paper Table V last row per dataset). Falls back
  // gracefully when a component transformation was unusable on this model.
  try {
    const transform_chain combo =
        combined_transform(config.data.kind, usable_singles);
    corner_search_result res = evaluate_chain(model, suite.seeds, combo);
    corner_entry entry;
    entry.combined = true;
    entry.usable = res.success_rate >= 0.3;
    entry.chain = combo;
    entry.success_rate = res.success_rate;
    entry.mean_confidence = res.mean_confidence;
    entry.range_description = "components from single-transform search";
    entry.cases = std::move(res.corner_cases);
    entry.misclassified = std::move(res.misclassified);
    log_info() << "combined transformation: " << describe_chain(entry.chain)
               << " success " << entry.success_rate;
    suite.entries.push_back(std::move(entry));
  } catch (const std::invalid_argument& e) {
    log_warn() << "combined transformation skipped: " << e.what();
  }

  if (metrics::enabled()) {
    std::uint64_t sccs = 0, fccs = 0;
    for (const auto& e : suite.entries) {
      if (!e.usable) continue;
      metrics::count("dv_corner_transforms_usable_total");
      for (const auto m : e.misclassified) (m != 0 ? sccs : fccs) += 1;
    }
    metrics::count("dv_corner_sccs_total", sccs);
    metrics::count("dv_corner_fccs_total", fccs);
  }

  log_info() << "corner suite generated in " << timer.seconds() << "s";
  suite.save(path);
  log_info() << "saved corner suite to " << path;
  return suite;
}

}  // namespace dv
