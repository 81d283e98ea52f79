// Tests for the runtime fail-safe monitor and the environment-drift stream.
#include <gtest/gtest.h>

#include <limits>

#include "augment/stream.h"
#include "core/monitor.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace dv {
namespace {

using dv::testing::shared_tiny_world;

const deep_validator& fitted_validator() {
  static const deep_validator dv = [] {
    const auto& world = shared_tiny_world();
    deep_validator out;
    deep_validator_config cfg;
    cfg.max_train_per_class = 50;
    out.fit(*world.model, world.train, cfg);
    const auto clean =
        out.evaluate(*world.model, world.test.images).joint;
    out.set_threshold(threshold_for_fpr(clean, 0.05));
    return out;
  }();
  return dv;
}

// -- environment_stream ---------------------------------------------------------

TEST(EnvironmentStream, EmitsFramesCyclically) {
  const auto& world = shared_tiny_world();
  environment_stream stream{world.test};
  const auto f0 = stream.next();
  EXPECT_EQ(f0.index, 0);
  EXPECT_EQ(f0.label, world.test.labels[0]);
  EXPECT_EQ(f0.image.shape(), (std::vector<std::int64_t>{1, 28, 28}));
  for (int i = 1; i < 5; ++i) (void)stream.next();
  EXPECT_EQ(stream.frames_emitted(), 5);
}

TEST(EnvironmentStream, NoDriftNoWalkIsIdentity) {
  const auto& world = shared_tiny_world();
  environment_stream stream{world.test};  // all drift/walk zero by default
  const auto frame = stream.next();
  const tensor original = world.test.images.sample(0);
  for (std::int64_t i = 0; i < original.numel(); ++i) {
    EXPECT_EQ(frame.image[i], original[i]);
  }
}

TEST(EnvironmentStream, DriftAccumulates) {
  const auto& world = shared_tiny_world();
  stream_config cfg;
  cfg.drift.brightness_bias = 0.1f;
  cfg.drift.rotation_deg = 5.0f;
  environment_stream stream{world.test, cfg};
  for (int i = 0; i < 4; ++i) (void)stream.next();
  EXPECT_NEAR(stream.state().brightness_bias, 0.4f, 1e-6f);
  EXPECT_NEAR(stream.state().rotation_deg, 20.0f, 1e-5f);
}

TEST(EnvironmentStream, BoundsAreRespected) {
  const auto& world = shared_tiny_world();
  stream_config cfg;
  cfg.drift.brightness_bias = 0.5f;
  cfg.drift.rotation_deg = 30.0f;
  cfg.drift.contrast_gain = 2.0f;
  cfg.max_brightness = 0.8f;
  cfg.max_rotation = 45.0f;
  cfg.max_contrast = 3.0f;
  environment_stream stream{world.test, cfg};
  for (int i = 0; i < 20; ++i) (void)stream.next();
  EXPECT_LE(stream.state().brightness_bias, 0.8f);
  EXPECT_LE(stream.state().rotation_deg, 45.0f);
  EXPECT_LE(stream.state().contrast_gain, 3.0f);
}

TEST(EnvironmentStream, WalkIsDeterministicPerSeed) {
  const auto& world = shared_tiny_world();
  stream_config cfg;
  cfg.walk_stddev.brightness_bias = 0.05f;
  cfg.seed = 7;
  environment_stream a{world.test, cfg};
  environment_stream b{world.test, cfg};
  for (int i = 0; i < 10; ++i) {
    (void)a.next();
    (void)b.next();
  }
  EXPECT_EQ(a.state().brightness_bias, b.state().brightness_bias);
}

TEST(EnvironmentState, ChainSkipsIdentityComponents) {
  environment_state s;
  EXPECT_TRUE(s.as_chain().empty());
  s.brightness_bias = 0.3f;
  s.rotation_deg = 10.0f;
  EXPECT_EQ(s.as_chain().size(), 2u);
}

// -- runtime_monitor --------------------------------------------------------------

TEST(Monitor, CleanStreamRaisesNoAlarm) {
  const auto& world = shared_tiny_world();
  runtime_monitor monitor{*world.model, fitted_validator()};
  environment_stream stream{world.test};
  int alarms = 0;
  for (int i = 0; i < 20; ++i) {
    alarms += monitor.observe(stream.next().image).alarm ? 1 : 0;
  }
  EXPECT_EQ(alarms, 0);
  EXPECT_EQ(monitor.frames_seen(), 20);
  EXPECT_LT(monitor.window_invalid_fraction(), 0.5);
}

TEST(Monitor, DegradingStreamLatchesAlarm) {
  const auto& world = shared_tiny_world();
  runtime_monitor monitor{*world.model, fitted_validator()};
  stream_config cfg;
  cfg.drift.brightness_bias = 0.06f;
  cfg.drift.rotation_deg = 5.0f;
  environment_stream stream{world.test, cfg};
  bool alarmed = false;
  for (int i = 0; i < 30 && !alarmed; ++i) {
    alarmed = monitor.observe(stream.next().image).alarm;
  }
  EXPECT_TRUE(alarmed);
  EXPECT_TRUE(monitor.alarmed());
}

TEST(Monitor, HysteresisReleasesAfterRecovery) {
  const auto& world = shared_tiny_world();
  monitor_config mc;
  mc.window = 4;
  mc.trigger_count = 2;
  mc.release_count = 3;
  runtime_monitor monitor{*world.model, fitted_validator(), mc};
  // Force invalid frames: complemented digits.
  const transform_chain invert{{transform_kind::complement, 0, 0}};
  for (int i = 0; i < 4; ++i) {
    (void)monitor.observe(
        apply_chain(world.test.images.sample(i), invert));
  }
  EXPECT_TRUE(monitor.alarmed());
  // Recover with clean frames; alarm must release after release_count.
  int released_at = -1;
  for (int i = 0; i < 10; ++i) {
    const auto v = monitor.observe(world.test.images.sample(i + 20));
    if (!v.alarm) {
      released_at = i;
      break;
    }
  }
  EXPECT_GE(released_at, mc.release_count - 1);
  EXPECT_NE(released_at, -1);
}

TEST(Monitor, SingleInvalidFrameDoesNotLatch) {
  const auto& world = shared_tiny_world();
  monitor_config mc;
  mc.trigger_count = 3;
  runtime_monitor monitor{*world.model, fitted_validator(), mc};
  const transform_chain invert{{transform_kind::complement, 0, 0}};
  (void)monitor.observe(world.test.images.sample(0));
  const auto v = monitor.observe(
      apply_chain(world.test.images.sample(1), invert));
  EXPECT_TRUE(v.frame_invalid);
  EXPECT_FALSE(v.alarm);  // hysteresis prevents one-frame flapping
}

TEST(Monitor, ResetClearsState) {
  const auto& world = shared_tiny_world();
  runtime_monitor monitor{*world.model, fitted_validator()};
  const transform_chain invert{{transform_kind::complement, 0, 0}};
  for (int i = 0; i < 5; ++i) {
    (void)monitor.observe(
        apply_chain(world.test.images.sample(i), invert));
  }
  monitor.reset();
  EXPECT_FALSE(monitor.alarmed());
  EXPECT_EQ(monitor.frames_seen(), 0);
  EXPECT_EQ(monitor.window_invalid_fraction(), 0.0);
}

TEST(Monitor, BadConfigurationThrows) {
  const auto& world = shared_tiny_world();
  monitor_config mc;
  mc.window = 2;
  mc.trigger_count = 3;  // trigger larger than window
  EXPECT_THROW(runtime_monitor(*world.model, fitted_validator(), mc),
               std::invalid_argument);
}

TEST(Monitor, UnfittedValidatorThrows) {
  const auto& world = shared_tiny_world();
  deep_validator unfitted;
  EXPECT_THROW(runtime_monitor(*world.model, unfitted),
               std::logic_error);
}

// -- batch path -------------------------------------------------------------

TEST(Monitor, ObserveBatchMatchesSequentialObserve) {
  const auto& world = shared_tiny_world();
  monitor_config mc;
  mc.window = 5;
  mc.trigger_count = 2;
  mc.release_count = 2;
  const transform_chain invert{{transform_kind::complement, 0, 0}};
  // Clean, invalid, clean: exercises latch and release across the stream.
  tensor frames{{12, 1, 28, 28}};
  for (std::int64_t i = 0; i < 12; ++i) {
    const tensor image = world.test.images.sample(i);
    frames.set_sample(i, (i >= 4 && i < 8) ? apply_chain(image, invert)
                                           : image);
  }
  runtime_monitor sequential{*world.model, fitted_validator(), mc};
  runtime_monitor batched{*world.model, fitted_validator(), mc};
  std::vector<monitor_verdict> expected;
  for (std::int64_t i = 0; i < 12; ++i) {
    expected.push_back(sequential.observe(frames.sample(i)));
  }
  const auto got = batched.observe_batch(frames);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].discrepancy, expected[i].discrepancy);  // bitwise
    EXPECT_EQ(got[i].prediction, expected[i].prediction);
    EXPECT_EQ(got[i].frame_invalid, expected[i].frame_invalid);
    EXPECT_EQ(got[i].alarm, expected[i].alarm);
  }
  EXPECT_EQ(batched.frames_seen(), sequential.frames_seen());
  EXPECT_EQ(batched.alarmed(), sequential.alarmed());
}

TEST(Monitor, ApplyIsAPureStateMachineStep) {
  const auto& world = shared_tiny_world();
  const auto& validator = fitted_validator();
  monitor_config mc;
  mc.window = 4;
  mc.trigger_count = 2;
  mc.release_count = 2;
  runtime_monitor monitor{*world.model, validator, mc};
  const double invalid = validator.threshold() + 1.0;
  const double valid = validator.threshold() - 1.0;
  EXPECT_FALSE(monitor.apply({valid, 3}).alarm);
  const auto first_invalid = monitor.apply({invalid, 4});
  EXPECT_TRUE(first_invalid.frame_invalid);
  EXPECT_FALSE(first_invalid.alarm);  // below trigger_count
  EXPECT_TRUE(monitor.apply({invalid, 4}).alarm);  // second invalid latches
  EXPECT_TRUE(monitor.apply({valid, 3}).alarm);    // one valid: still latched
  EXPECT_FALSE(monitor.apply({valid, 3}).alarm);   // release_count reached
  EXPECT_EQ(monitor.frames_seen(), 5);
}

TEST(Monitor, NanDiscrepancyIsAnInvalidFrame) {
  const auto& world = shared_tiny_world();
  const auto& validator = fitted_validator();
  runtime_monitor monitor{*world.model, validator};
  const auto verdict =
      monitor.apply({std::numeric_limits<double>::quiet_NaN(), 1});
  EXPECT_TRUE(verdict.frame_invalid);
  EXPECT_FALSE(monitor.apply({validator.threshold() - 1.0, 1}).frame_invalid);
}

TEST(Monitor, BatchSpanningTriggerBoundaryLatchesMidBatch) {
  const auto& world = shared_tiny_world();
  monitor_config mc;
  mc.window = 4;
  mc.trigger_count = 2;
  mc.release_count = 4;
  runtime_monitor monitor{*world.model, fitted_validator(), mc};
  const transform_chain invert{{transform_kind::complement, 0, 0}};
  tensor frames{{3, 1, 28, 28}};
  frames.set_sample(0, apply_chain(world.test.images.sample(0), invert));
  frames.set_sample(1, apply_chain(world.test.images.sample(1), invert));
  frames.set_sample(2, world.test.images.sample(2));
  const auto verdicts = monitor.observe_batch(frames);
  ASSERT_EQ(verdicts.size(), 3u);
  ASSERT_TRUE(verdicts[0].frame_invalid);
  ASSERT_TRUE(verdicts[1].frame_invalid);
  EXPECT_FALSE(verdicts[0].alarm);  // one invalid frame: below trigger
  EXPECT_TRUE(verdicts[1].alarm);   // latches exactly at the boundary
  EXPECT_TRUE(verdicts[2].alarm);   // a single valid frame cannot release
  EXPECT_TRUE(monitor.alarmed());
}

}  // namespace
}  // namespace dv
