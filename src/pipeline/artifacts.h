// Artifact cache: load-or-compute for trained models and fitted validators.
//
// Training a model or fitting a validator bank takes minutes on one core;
// every bench binary shares the same deterministic configuration, so the
// first binary to need an artifact trains and saves it and the rest load it.
// Delete the artifact directory to force a full re-run.
//
// Every artifact is a flat snapshot (docs/SNAPSHOTS.md):
// `model-<kind>.dvsnap`, `validator-<kind>-<tag>.dvsnap` and, from
// pipeline/corner_suite.h, `corners-<kind>.dvsnap`. Files of an older
// format under other names are ignored, so a stale cache is recomputed
// instead of misread.
#pragma once

#include <memory>

#include "core/deep_validator.h"
#include "nn/model.h"
#include "pipeline/config.h"

namespace dv {

struct model_bundle {
  dataset_bundle data;
  std::unique_ptr<sequential> model;
  double test_accuracy{0.0};
  double mean_confidence{0.0};
  bool loaded_from_cache{false};
};

/// Builds the datasets deterministically and loads the trained model from
/// the artifact cache, training (and saving) it if absent.
model_bundle load_or_train(const experiment_config& config);

/// Loads the fitted Deep Validation bank from the cache, fitting (and
/// saving) it if absent. `tag` distinguishes non-standard configurations
/// (e.g. ablations); the default tag matches standard_config. Returns a
/// mutable builder materialized from the snapshot; for zero-copy serving
/// open the same file with validator_bank_view::from_snapshot.
deep_validator load_or_fit_validator(const experiment_config& config,
                                     sequential& model, const dataset& train,
                                     const std::string& tag = "std");

}  // namespace dv
