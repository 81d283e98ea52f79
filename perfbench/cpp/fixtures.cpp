// Fixtures: the two trained models and their standard validator banks,
// made with the program's own training and fitting code. Run once per
// build, outside any timed phase; the workloads refuse to run without
// them rather than training inside the timing.
#include <filesystem>
#include <iostream>

#include "common.h"
#include "eval/metrics.h"
#include "nn/trainer.h"
#include "pipeline/config.h"
#include "pipeline/models.h"
#include "util/logging.h"

namespace perfbench {

namespace {

/// Operating point of the standard banks: epsilon at 5% false positives
/// on the clean test split, as in the runtime-monitor example.
constexpr double k_threshold_fpr = 0.05;

void make_kind(dataset_kind kind, const fixture_paths& out) {
  const experiment_config config = standard_config(kind);
  log_info() << "fixtures: " << config.summary();
  const dataset_bundle data = make_dataset(config.data);
  auto model = make_model(kind, config.model_seed);
  (void)fit(*model, data.train.images, data.train.labels, config.train);
  model->save_params(out.model(kind));

  deep_validator bank;
  bank.fit(*model, data.train, config.validator);
  const auto clean = bank.evaluate(*model, data.test.images);
  bank.set_threshold(threshold_for_fpr(clean.joint, k_threshold_fpr));
  bank.save_snapshot(out.bank(kind));
  log_info() << "fixtures: " << dataset_kind_name(kind) << " test accuracy "
             << accuracy(*model, data.test.images, data.test.labels)
             << ", threshold " << bank.threshold();
}

}  // namespace

int make_fixtures(const std::string& dir) {
  // Build into a scratch directory and rename at the end, so an
  // interrupted run never leaves a partial fixture set behind.
  const std::string scratch = dir + ".partial";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const fixture_paths out{scratch};
  for (const auto kind : {dataset_kind::street, dataset_kind::objects}) {
    make_kind(kind, out);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::rename(scratch, dir);
  std::cerr << "fixtures ready in " << dir << "\n";
  return 0;
}

}  // namespace perfbench
