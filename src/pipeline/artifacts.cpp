#include "pipeline/artifacts.h"

#include "pipeline/models.h"

#include "util/logging.h"
#include "util/serialize.h"
#include "util/stopwatch.h"

namespace dv {

namespace {
std::string model_path(const experiment_config& config) {
  return artifact_directory() + "/model-" +
         dataset_kind_name(config.data.kind) + ".dvsnap";
}
}  // namespace

model_bundle load_or_train(const experiment_config& config) {
  model_bundle out;
  out.data = make_dataset(config.data);
  out.model = make_model(config.data.kind, config.model_seed);

  const std::string path = model_path(config);
  if (file_exists(path)) {
    out.model->load_params(path);
    out.loaded_from_cache = true;
    log_info() << "loaded cached model from " << path;
  } else {
    log_info() << "training " << model_name(config.data.kind) << " on "
               << config.summary();
    stopwatch timer;
    (void)fit(*out.model, out.data.train.images, out.data.train.labels,
              config.train);
    log_info() << "training done in " << timer.seconds() << "s";
    out.model->save_params(path);
    log_info() << "saved model to " << path;
  }
  out.test_accuracy =
      accuracy(*out.model, out.data.test.images, out.data.test.labels);
  out.mean_confidence = mean_top1_confidence(*out.model, out.data.test.images);
  log_info() << dataset_kind_name(config.data.kind)
             << ": test accuracy " << out.test_accuracy
             << ", mean top-1 confidence " << out.mean_confidence;
  return out;
}

deep_validator load_or_fit_validator(const experiment_config& config,
                                     sequential& model, const dataset& train,
                                     const std::string& tag) {
  const std::string path = artifact_directory() + "/validator-" +
                           dataset_kind_name(config.data.kind) + "-" + tag +
                           ".dvsnap";
  if (!file_exists(path)) {
    deep_validator dv;
    dv.fit(model, train, config.validator);
    dv.save_snapshot(path);
    log_info() << "saved validator snapshot to " << path;
  }
  log_info() << "loading validator from " << path;
  return deep_validator::load_snapshot(path);
}

}  // namespace dv
