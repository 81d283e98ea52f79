// Tests for the hot-swap seam (serve/engine_handle.h): handle lifecycle,
// per-batch bank pinning (every frame of one batch scores against one
// generation), agreement with the sequential path, and the TSan stress —
// a publisher races fresh banks against submitters flowing through the
// micro_batcher, and every verdict must match exactly one published
// generation's threshold — and monitor_service verdicts, which follow the
// published bank's threshold and generation rather than the monitor's
// own. Run under scripts/run_static_analysis.sh's tsan stage to validate
// the lock-free publish path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/deep_validator.h"
#include "core/monitor.h"
#include "core/validator_bank.h"
#include "eval/metrics.h"
#include "serve/engine_handle.h"
#include "serve/monitor_service.h"
#include "serve/scoring_service.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace dv {
namespace {

using dv::testing::shared_tiny_world;
using namespace std::chrono_literals;

struct thread_count_guard {
  ~thread_count_guard() { set_thread_count(0); }
};

/// A fitted validator with a threshold, shared across this binary.
const deep_validator& fitted_validator() {
  static const deep_validator dv = [] {
    const auto& world = shared_tiny_world();
    deep_validator out;
    deep_validator_config cfg;
    cfg.max_train_per_class = 40;
    out.fit(*world.model, world.train, cfg);
    const auto clean = out.evaluate(*world.model, world.test.images).joint;
    out.set_threshold(threshold_for_fpr(clean, 0.05));
    return out;
  }();
  return dv;
}

/// A bank sharing fitted_validator()'s layers but carrying `threshold`,
/// so each published generation is distinguishable by its verdicts.
validator_bank_view bank_with_threshold(double threshold) {
  const auto base = fitted_validator().bank();
  std::vector<int> probes;
  for (int i = 0; i < base.validated_layers(); ++i) {
    probes.push_back(base.probe_index(i));
  }
  return validator_bank_view{base.layers(), probes, base.spatial(),
                             base.batching(), threshold};
}

/// The stress test's generation-coloring rule: even generations flag
/// everything (threshold below any finite joint), odd ones flag nothing.
double threshold_for_generation(std::uint64_t g) {
  return g % 2 == 0 ? -1e9 : 1e9;
}

/// First `n` test images stacked as one [n,1,28,28] batch.
tensor subset_frames(std::int64_t n) {
  const auto& world = shared_tiny_world();
  tensor frames{{n, 1, 28, 28}};
  for (std::int64_t i = 0; i < n; ++i) {
    frames.set_sample(i, world.test.images.sample(i));
  }
  return frames;
}

// -- engine_handle units ------------------------------------------------------

TEST(EngineHandle, StartsEmpty) {
  engine_handle handle;
  EXPECT_EQ(handle.current(), nullptr);
  EXPECT_EQ(handle.generation(), 0u);
  EXPECT_FALSE(handle.has_bank());
}

TEST(EngineHandle, PublishRejectsEmptyBank) {
  engine_handle handle;
  EXPECT_THROW((void)handle.publish(validator_bank_view{}),
               std::invalid_argument);
  EXPECT_EQ(handle.generation(), 0u);
}

TEST(EngineHandle, GenerationsAreMonotonicAndOldBanksStayAlive) {
  engine_handle handle;
  EXPECT_EQ(handle.publish(bank_with_threshold(1.0)), 1u);
  const auto first = handle.current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->generation, 1u);
  EXPECT_EQ(handle.publish(bank_with_threshold(2.0)), 2u);
  // The pinned generation-1 bank is untouched by the publish.
  EXPECT_EQ(first->generation, 1u);
  EXPECT_EQ(first->bank.threshold(), 1.0);
  EXPECT_EQ(handle.current()->generation, 2u);
  EXPECT_EQ(handle.generation(), 2u);
}

TEST(EngineHandle, PublishRecordsMetrics) {
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  engine_handle handle;
  (void)handle.publish(bank_with_threshold(1.0));
  const auto snap = metrics::collect();
  metrics::set_enabled(was_enabled);
  bool saw_publishes = false;
  bool saw_generation = false;
  for (const auto& s : snap.samples) {
    if (s.name == "dv_snapshot_publish_total" && s.value >= 1.0) {
      saw_publishes = true;
    }
    if (s.name == "dv_snapshot_active_generation" && s.value >= 1.0) {
      saw_generation = true;
    }
  }
  EXPECT_TRUE(saw_publishes);
  EXPECT_TRUE(saw_generation);
}

// -- engine_scorer ------------------------------------------------------------

TEST(EngineScorer, ThrowsBeforeFirstPublish) {
  const auto& world = shared_tiny_world();
  engine_handle handle;
  engine_scorer scorer{*world.model, handle};
  EXPECT_THROW((void)scorer.score(subset_frames(2)), std::logic_error);
}

TEST(EngineScorer, MatchesSequentialEvaluation) {
  const auto& dv = fitted_validator();
  const auto& world = shared_tiny_world();
  engine_handle handle;
  (void)handle.publish(dv.bank());
  engine_scorer scorer{*world.model, handle};

  const tensor frames = subset_frames(12);
  const auto results = scorer.score(frames);
  const auto expected = dv.evaluate(*world.model, frames);
  ASSERT_EQ(results.size(), 12u);
  for (std::size_t j = 0; j < results.size(); ++j) {
    EXPECT_EQ(std::memcmp(&results[j].joint, &expected.joint[j],
                          sizeof(double)),
              0);
    EXPECT_EQ(results[j].prediction, expected.predictions[j]);
    EXPECT_EQ(results[j].invalid, dv.flags_invalid(expected.joint[j]));
    EXPECT_EQ(results[j].generation, 1u);
    EXPECT_FALSE(results[j].has_weighted);
    ASSERT_EQ(results[j].per_layer.size(), expected.per_layer.size());
    for (std::size_t l = 0; l < expected.per_layer.size(); ++l) {
      EXPECT_EQ(std::memcmp(&results[j].per_layer[l],
                            &expected.per_layer[l][j], sizeof(double)),
                0);
    }
  }
}

TEST(EngineScorer, BatchPinsOneGenerationWhilePublisherRaces) {
  const auto& world = shared_tiny_world();
  engine_handle handle;
  (void)handle.publish(bank_with_threshold(threshold_for_generation(1)));
  engine_scorer scorer{*world.model, handle};

  std::atomic<bool> stop{false};
  std::thread publisher{[&] {
    std::uint64_t g = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ++g;
      (void)handle.publish(bank_with_threshold(threshold_for_generation(g)));
      std::this_thread::yield();
    }
  }};

  const tensor frames = subset_frames(16);
  std::uint64_t last = 0;
  for (int round = 0; round < 20; ++round) {
    const auto results = scorer.score(frames);
    ASSERT_FALSE(results.empty());
    const std::uint64_t g = results.front().generation;
    // The bank is pinned ONCE per batch: every frame shares one
    // generation even though publishes land mid-batch.
    for (const auto& r : results) {
      EXPECT_EQ(r.generation, g);
      EXPECT_EQ(r.invalid, r.joint > threshold_for_generation(g));
    }
    EXPECT_GE(g, last);
    last = g;
  }
  stop.store(true);
  publisher.join();
  EXPECT_LE(last, handle.generation());
}

// -- hot-swap stress through the micro_batcher --------------------------------

TEST(EngineSwap, StressEveryVerdictMatchesOnePublishedGeneration) {
  thread_count_guard guard;
  const auto& world = shared_tiny_world();
  engine_handle handle;
  (void)handle.publish(bank_with_threshold(threshold_for_generation(1)));
  engine_scorer scorer{*world.model, handle};

  serve_config config;
  config.batch.max_batch = 8;
  config.queue_capacity = 64;
  scoring_service service{scorer, config};

  // Publisher: keeps swapping banks (min 5 generations, then until the
  // submitters drain) with the generation-colored threshold rule.
  std::atomic<bool> stop{false};
  std::thread publisher{[&] {
    std::uint64_t g = 1;
    while (g < 5 || !stop.load(std::memory_order_relaxed)) {
      ++g;
      (void)handle.publish(bank_with_threshold(threshold_for_generation(g)));
      std::this_thread::sleep_for(1ms);
    }
  }};

  // Submitters: race frames through the micro_batcher; futures keep
  // per-thread submission order.
  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 48;
  std::vector<std::vector<std::future<scoring_result>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      futures[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        futures[t].push_back(
            service.submit(world.test.images.sample((t * 31 + i) % 64)));
      }
    });
  }
  for (auto& s : submitters) s.join();
  service.flush();
  stop.store(true);
  publisher.join();
  const std::uint64_t final_generation = handle.generation();
  EXPECT_GE(final_generation, 5u);

  for (int t = 0; t < kSubmitters; ++t) {
    std::uint64_t last = 0;
    for (auto& f : futures[t]) {
      const scoring_result r = f.get();
      // The verdict is attributable to exactly one published generation:
      // its threshold rule decides `invalid`, nothing in between.
      ASSERT_GE(r.generation, 1u);
      ASSERT_LE(r.generation, final_generation);
      EXPECT_EQ(r.invalid, r.joint > threshold_for_generation(r.generation));
      // Batches form in queue order, so per-submitter generations never
      // run backwards.
      EXPECT_GE(r.generation, last);
      last = r.generation;
    }
  }
  service.shutdown();
}

// -- monitor_service over a published bank ------------------------------------

TEST(EngineSwap, MonitorVerdictsFollowThePublishedBank) {
  const auto& dv = fitted_validator();  // the monitor's own ε: 5% FPR
  const auto& world = shared_tiny_world();
  const auto clean = dv.evaluate(*world.model, world.test.images).joint;
  engine_handle handle;
  engine_scorer scorer{*world.model, handle};
  runtime_monitor monitor{*world.model, dv};
  serve_config config;
  config.batch.max_batch = 8;
  monitor_service service{scorer, monitor, config};

  // Publishes a bank with ε at `fpr`, streams the test set through the
  // service, and returns how many verdicts the monitor's own ε would have
  // decided the other way. Every verdict must follow the published bank.
  const auto publish_and_stream = [&](double fpr) {
    const validator_bank_view bank =
        bank_with_threshold(threshold_for_fpr(clean, fpr));
    const std::uint64_t generation = handle.publish(bank);
    std::vector<std::future<monitor_verdict>> futures;
    for (std::int64_t i = 0; i < world.test.size(); ++i) {
      futures.push_back(service.submit(world.test.images.sample(i)));
    }
    int overruled = 0;
    for (auto& f : futures) {
      const monitor_verdict v = f.get();
      EXPECT_EQ(v.generation, generation);
      EXPECT_EQ(v.frame_invalid, bank.flags_invalid(v.discrepancy));
      overruled += v.frame_invalid != dv.flags_invalid(v.discrepancy) ? 1 : 0;
    }
    return overruled;
  };
  EXPECT_GT(publish_and_stream(0.30), 0);
  EXPECT_GT(publish_and_stream(0.01), 0);
  service.shutdown();
}

}  // namespace
}  // namespace dv
