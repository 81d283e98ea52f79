// Shared test fixtures: a tiny trained classifier on a tiny synthetic digit
// dataset, trained once per process and reused by every suite that needs a
// working model.
#pragma once

#include <memory>

#include "data/synth_digits.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "util/logging.h"

namespace dv::testing {

struct tiny_world {
  dataset train;
  dataset test;
  std::unique_ptr<sequential> model;
  double test_accuracy{0.0};
};

/// Appends the tiny CNN's layers to `model`:
/// conv4-pool-conv8-pool-fc32-logits with three probes.
inline void add_tiny_layers(sequential& model, rng& gen) {
  model.add(std::make_unique<conv2d>(1, 4, 3, 1, 1, gen));
  model.add(std::make_unique<relu>());
  model.add(std::make_unique<max_pool2d>(2), /*probe=*/true);
  model.add(std::make_unique<conv2d>(4, 8, 3, 1, 1, gen));
  model.add(std::make_unique<relu>());
  model.add(std::make_unique<max_pool2d>(2), /*probe=*/true);
  model.add(std::make_unique<flatten>());
  model.add(std::make_unique<dense>(8 * 7 * 7, 32, gen));
  model.add(std::make_unique<relu>(), /*probe=*/true);
  model.add(std::make_unique<dense>(32, 10, gen));
}

/// A small CNN: conv4-pool-conv8-pool-fc32-logits with three probes.
inline std::unique_ptr<sequential> make_tiny_model(std::uint64_t seed) {
  rng gen{seed};
  auto model = std::make_unique<sequential>();
  add_tiny_layers(*model, gen);
  return model;
}

/// Trains the tiny model once per process (~10 s) and caches it.
inline const tiny_world& shared_tiny_world() {
  static const tiny_world world = [] {
    set_log_level(log_level::warn);
    tiny_world w;
    synth_digits_config train_cfg;
    train_cfg.count = 600;
    train_cfg.seed = 1001;
    w.train = make_synth_digits(train_cfg);
    synth_digits_config test_cfg;
    test_cfg.count = 200;
    test_cfg.seed = 2002;
    w.test = make_synth_digits(test_cfg);
    w.model = make_tiny_model(31);
    train_config tc;
    tc.optimizer = train_config::opt_kind::adam;
    tc.lr = 2e-3f;
    tc.epochs = 5;
    tc.batch_size = 32;
    tc.verbose = false;
    (void)fit(*w.model, w.train.images, w.train.labels, tc);
    w.test_accuracy = accuracy(*w.model, w.test.images, w.test.labels);
    return w;
  }();
  return world;
}

}  // namespace dv::testing
