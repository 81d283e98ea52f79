// Tests for the hot-swap seam (serve/engine_handle.h): handle lifecycle,
// per-batch bank pinning (every frame of one batch scores against one
// generation), agreement with the sequential path, and the TSan stress —
// a publisher races fresh banks against submitters flowing through the
// micro_batcher, and every verdict must match exactly one published
// generation's threshold — monitor_service verdicts, which follow the
// published bank's threshold and generation rather than the monitor's
// own, a publish that changes the reducer resolution, frames holding NaN
// or infinite pixels, which fail closed on every serving surface, and
// malformed tensors on the direct scoring calls: a [C,H,W] frame scores as
// one frame and an empty tensor or any other rank throws — and concurrent
// scoring through one bank: two services sharing a handle, and two threads
// evaluating one const validator. Run under
// scripts/run_static_analysis.sh's tsan stage to validate the lock-free
// publish path and that banks hold no state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
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

/// Turns caching on for one test, whatever DV_CACHE says.
struct cache_on_guard {
  bool saved = cache_enabled();
  cache_on_guard() { set_cache_enabled(true); }
  ~cache_on_guard() { set_cache_enabled(saved); }
};

/// A validator fitted with probes reduced at `spatial` and SVMs at `nu`,
/// with its threshold at 5% FPR on the test set.
deep_validator fit_validator(int spatial,
                             double nu = one_class_svm_config{}.nu) {
  const auto& world = shared_tiny_world();
  deep_validator out;
  deep_validator_config cfg;
  cfg.max_train_per_class = 40;
  cfg.spatial = spatial;
  cfg.svm.nu = nu;
  out.fit(*world.model, world.train, cfg);
  const auto clean = out.evaluate(*world.model, world.test.images).joint;
  out.set_threshold(threshold_for_fpr(clean, 0.05));
  return out;
}

/// A fitted validator with a threshold, shared across this binary.
const deep_validator& fitted_validator() {
  static const deep_validator dv = fit_validator(1);
  return dv;
}

/// A second bank at fitted_validator()'s resolution with other SVMs, so
/// the two score frames differently.
const deep_validator& refitted_validator() {
  static const deep_validator dv = fit_validator(1, 0.2);
  return dv;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Row `f` of `want`, bit for bit: per_layer, joint and prediction.
void expect_row(const scoring_result& got, const validation_scores& want,
                std::size_t f) {
  EXPECT_TRUE(same_bits(got.joint, want.joint[f]));
  EXPECT_EQ(got.prediction, want.predictions[f]);
  ASSERT_EQ(got.per_layer.size(), want.per_layer.size());
  for (std::size_t l = 0; l < want.per_layer.size(); ++l) {
    EXPECT_TRUE(same_bits(got.per_layer[l], want.per_layer[l][f]));
  }
}

/// Every row of `got` carries the bits of `expected`, judged by `bank`:
/// rows marked in `nonfinite` come back flagged with a joint of +inf, as
/// the direct evaluate scores them, and so invalid.
void expect_rows(const std::vector<scoring_result>& got,
                 const validation_scores& expected,
                 const validator_bank_view& bank,
                 const std::vector<bool>& nonfinite) {
  ASSERT_EQ(got.size(), expected.joint.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].nonfinite, nonfinite[i]);
    EXPECT_EQ(got[i].invalid, bank.flags_invalid(expected.joint[i]));
    expect_row(got[i], expected, i);
  }
}

double counter_value(const std::string& name) {
  for (const auto& s : metrics::collect().samples) {
    if (s.name == name) return s.value;
  }
  return 0.0;
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
  expect_rows(results, dv.evaluate(*world.model, frames), dv.bank(),
              std::vector<bool>(12, false));
  for (const auto& r : results) {
    EXPECT_EQ(r.generation, 1u);
    EXPECT_FALSE(r.has_weighted);
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

TEST(EngineScorer, PublishAtAnotherResolutionStartsAColdCache) {
  cache_on_guard caching;
  const auto& world = shared_tiny_world();
  const deep_validator& gap = fitted_validator();
  const deep_validator grid = fit_validator(2);
  const tensor frames = subset_frames(12);
  const std::vector<bool> no_nonfinite(12, false);
  engine_handle handle;
  (void)handle.publish(gap.bank());
  engine_scorer scorer{*world.model, handle};

  const auto gap_expected = gap.evaluate(*world.model, frames);
  for (int pass = 0; pass < 2; ++pass) {
    const auto rows = scorer.score(frames);
    expect_rows(rows, gap_expected, gap.bank(), no_nonfinite);
    EXPECT_EQ(rows.front().generation, 1u);
  }
  ASSERT_NE(scorer.frame_cache(), nullptr);
  EXPECT_EQ(scorer.frame_cache()->spatial(), 1);
  EXPECT_EQ(scorer.frame_cache()->lru().hits(), 12u);

  // The new bank reads probes at spatial 2: the rows cached for the old
  // one cannot serve it, so the first batch after the publish misses on
  // every row and scores exactly as a fresh evaluate of the new bank.
  (void)handle.publish(grid.bank());
  const auto rows = scorer.score(frames);
  expect_rows(rows, grid.evaluate(*world.model, frames), grid.bank(),
              no_nonfinite);
  EXPECT_EQ(rows.front().generation, 2u);
  EXPECT_EQ(scorer.frame_cache()->spatial(), 2);
  EXPECT_EQ(scorer.frame_cache()->lru().misses(), 12u);
  EXPECT_EQ(scorer.frame_cache()->lru().hits(), 0u);
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

// -- banks hold no state: concurrent scoring through one bank -----------------

TEST(EngineSwap, TwoServicesShareOneHandleWhilePublisherRaces) {
  cache_on_guard caching;
  const auto& world = shared_tiny_world();
  // Odd generations publish one bank and even ones the other, so a row
  // scored by the wrong generation, or copied from a stale cache entry,
  // shows in its bits.
  const validator_bank_view banks[] = {refitted_validator().bank(),
                                       fitted_validator().bank()};
  constexpr std::int64_t kFrames = 24;
  const tensor frames = subset_frames(kFrames);
  const validation_scores expected[] = {
      banks[0].evaluate(*world.model, frames),
      banks[1].evaluate(*world.model, frames)};
  engine_handle handle;
  (void)handle.publish(banks[1]);
  engine_scorer first_scorer{*world.model, handle};
  engine_scorer second_scorer{*world.model, handle};
  serve_config config;
  config.batch.max_batch = 8;
  config.queue_capacity = 64;
  scoring_service first_service{first_scorer, config};
  scoring_service second_service{second_scorer, config};
  scoring_service* const services[] = {&first_service, &second_service};

  std::atomic<bool> stop{false};
  std::thread publisher{[&] {
    std::uint64_t g = 1;
    while (g < 5 || !stop.load(std::memory_order_relaxed)) {
      ++g;
      (void)handle.publish(banks[g % 2]);
      std::this_thread::sleep_for(1ms);
    }
  }};

  // One submitter per service; each revisits the frames, so both caches
  // hit between publishes and start cold after each.
  constexpr int kPerService = 96;
  const auto frame_of = [](int service, int i) {
    return static_cast<std::size_t>((i * 7 + service) % kFrames);
  };
  std::vector<std::future<scoring_result>> futures[2];
  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerService; ++i) {
        futures[s].push_back(services[s]->submit(
            frames.sample(static_cast<std::int64_t>(frame_of(s, i)))));
      }
    });
  }
  for (auto& t : submitters) t.join();
  first_service.flush();
  second_service.flush();
  stop.store(true);
  publisher.join();

  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < kPerService; ++i) {
      SCOPED_TRACE(std::to_string(s) + "/" + std::to_string(i));
      const scoring_result r = futures[s][static_cast<std::size_t>(i)].get();
      ASSERT_GE(r.generation, 1u);
      const validation_scores& want = expected[r.generation % 2];
      const std::size_t f = frame_of(s, i);
      expect_row(r, want, f);
      EXPECT_EQ(r.invalid,
                banks[r.generation % 2].flags_invalid(want.joint[f]));
    }
  }
  first_service.shutdown();
  second_service.shutdown();
}

TEST(EngineSwap, TwoThreadsEvaluateOneConstValidator) {
  cache_on_guard caching;
  const auto& world = shared_tiny_world();
  const deep_validator& dv = fitted_validator();
  // Each batch repeats its frames, and both threads score the same ones.
  tensor frames{{32, 1, 28, 28}};
  for (std::int64_t i = 0; i < 32; ++i) {
    frames.set_sample(i, world.test.images.sample(i % 8));
  }
  const validation_scores expected = dv.evaluate(*world.model, frames);

  std::vector<validation_scores> got[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 4; ++pass) {
        got[t].push_back(dv.evaluate(*world.model, frames));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& runs : got) {
    for (const validation_scores& s : runs) {
      ASSERT_EQ(s.joint.size(), expected.joint.size());
      for (std::size_t i = 0; i < s.joint.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(same_bits(s.joint[i], expected.joint[i]));
        EXPECT_EQ(s.predictions[i], expected.predictions[i]);
        for (std::size_t l = 0; l < expected.per_layer.size(); ++l) {
          EXPECT_TRUE(same_bits(s.per_layer[l][i], expected.per_layer[l][i]));
        }
      }
    }
  }
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

// -- non-finite frames fail closed --------------------------------------------

/// Clean test frames where five of every six carry one pixel, at a seeded
/// position, set to NaN, +Inf, -Inf, a denormal or 1e30; only the first
/// three kinds are non-finite.
struct poisoned_stream {
  tensor frames;
  std::vector<bool> nonfinite;
};

poisoned_stream poisoned_frames(std::int64_t n) {
  const float values[] = {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::denorm_min(), 1e30f};
  poisoned_stream out{subset_frames(n),
                      std::vector<bool>(static_cast<std::size_t>(n), false)};
  const std::int64_t frame_elems = out.frames.numel() / n;
  rng gen{2024};
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t kind = i % 6;
    if (kind == 5) continue;  // stays clean
    const int pixel = gen.uniform_int(0, static_cast<int>(frame_elems) - 1);
    out.frames.data()[i * frame_elems + pixel] =
        values[static_cast<std::size_t>(kind)];
    out.nonfinite[static_cast<std::size_t>(i)] = kind < 3;
  }
  return out;
}

TEST(NonfiniteFrames, FailClosedOnEveryServingSurface) {
  const bool metrics_were_on = metrics::enabled();
  metrics::set_enabled(true);
  const auto& dv = fitted_validator();
  const auto& world = shared_tiny_world();
  const poisoned_stream in = poisoned_frames(24);
  const auto n = static_cast<std::int64_t>(in.nonfinite.size());
  const validator_bank_view bank = dv.bank();
  const validation_scores expected = bank.evaluate(*world.model, in.frames);
  engine_handle handle;
  (void)handle.publish(bank);
  engine_scorer scorer{*world.model, handle};

  // engine_scorer, one batch; each non-finite frame is counted once.
  const double before = counter_value("dv_serve_nonfinite_frames_total");
  expect_rows(scorer.score(in.frames), expected, bank, in.nonfinite);
  EXPECT_EQ(counter_value("dv_serve_nonfinite_frames_total") - before, 12.0);

  // scoring_service: frame by frame through the micro-batcher.
  serve_config config;
  config.batch.max_batch = 8;
  {
    scoring_service service{scorer, config};
    std::vector<std::future<scoring_result>> futures;
    for (std::int64_t i = 0; i < n; ++i) {
      futures.push_back(service.submit(in.frames.sample(i)));
    }
    std::vector<scoring_result> rows;
    for (auto& f : futures) rows.push_back(f.get());
    expect_rows(rows, expected, bank, in.nonfinite);
    service.shutdown();
  }

  // monitor_service: a non-finite frame is folded as invalid, with the
  // joint runtime_monitor::observe folds for it.
  runtime_monitor monitor{*world.model, dv};
  monitor_service service{scorer, monitor, config};
  std::vector<std::future<monitor_verdict>> futures;
  for (std::int64_t i = 0; i < n; ++i) {
    futures.push_back(service.submit(in.frames.sample(i)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    SCOPED_TRACE(i);
    const monitor_verdict v = futures[i].get();
    EXPECT_EQ(v.nonfinite, in.nonfinite[i]);
    EXPECT_TRUE(same_bits(v.discrepancy, expected.joint[i]));
    EXPECT_EQ(v.frame_invalid, bank.flags_invalid(expected.joint[i]));
  }
  service.shutdown();
  metrics::set_enabled(metrics_were_on);
}

/// The frame-level checks shared by every direct scoring call: a
/// non-finite frame scores a joint of +inf and is invalid under `dv`'s
/// threshold; a finite frame keeps the bits of `expected`.
void expect_direct_joint(double got, std::size_t i, const poisoned_stream& in,
                         const validation_scores& expected,
                         const deep_validator& dv) {
  SCOPED_TRACE(i);
  if (in.nonfinite[i]) {
    EXPECT_EQ(got, std::numeric_limits<double>::infinity());
    EXPECT_TRUE(dv.flags_invalid(got));
    return;
  }
  EXPECT_TRUE(same_bits(got, expected.joint[i]));
}

TEST(NonfiniteFrames, FailClosedOnEveryDirectScoringCall) {
  const auto& world = shared_tiny_world();
  const poisoned_stream in = poisoned_frames(24);
  const auto n = static_cast<std::int64_t>(in.nonfinite.size());
  // The activation-batch path never looks at the frames, so it holds
  // today's bits for every row.
  const validation_scores expected = fitted_validator().bank().evaluate(
      extract_activations(*world.model, in.frames));
  // At a threshold no joint reaches, only a fail-closed frame is invalid.
  deep_validator lax = fitted_validator();
  lax.set_threshold(std::numeric_limits<double>::max());
  const deep_validator* const validators[] = {&fitted_validator(), &lax};
  for (const deep_validator* dv : validators) {
    SCOPED_TRACE(dv->threshold());
    // deep_validator::evaluate over the whole batch.
    const validation_scores got = dv->evaluate(*world.model, in.frames);
    ASSERT_EQ(got.joint.size(), in.nonfinite.size());
    for (std::size_t i = 0; i < got.joint.size(); ++i) {
      expect_direct_joint(got.joint[i], i, in, expected, *dv);
      EXPECT_EQ(got.predictions[i], expected.predictions[i]);
      for (std::size_t l = 0; l < expected.per_layer.size(); ++l) {
        EXPECT_TRUE(same_bits(got.per_layer[l][i], expected.per_layer[l][i]));
      }
    }
    // joint_discrepancy, one frame at a time.
    for (std::int64_t i = 0; i < n; ++i) {
      const double joint =
          dv->joint_discrepancy(*world.model, in.frames.sample(i));
      expect_direct_joint(joint, static_cast<std::size_t>(i), in, expected,
                          *dv);
    }
    // runtime_monitor::observe and observe_batch: a non-finite frame is
    // folded as invalid and flagged.
    runtime_monitor monitor{*world.model, *dv};
    std::vector<monitor_verdict> verdicts;
    for (std::int64_t i = 0; i < n; ++i) {
      verdicts.push_back(monitor.observe(in.frames.sample(i)));
    }
    monitor.reset();
    const std::vector<monitor_verdict> batched =
        monitor.observe_batch(in.frames);
    ASSERT_EQ(batched.size(), verdicts.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      for (const monitor_verdict& v : {verdicts[i], batched[i]}) {
        expect_direct_joint(v.discrepancy, i, in, expected, *dv);
        EXPECT_EQ(v.nonfinite, in.nonfinite[i]) << i;
        EXPECT_EQ(v.frame_invalid,
                  in.nonfinite[i] || dv->flags_invalid(expected.joint[i]))
            << i;
      }
    }
  }
}

/// shared_tiny_world()'s trained model behind a 1x1 convolution that
/// passes channel 0 of a [3, 28, 28] frame through exactly (weights 1, 0,
/// 0 and no bias: x + 0 + 0 == x). Its logits and probes on such a frame
/// are the trained model's on the digit in channel 0, bit for bit, so
/// fitted_validator() scores it; unlike a digit, its frame has more
/// channels than one.
std::unique_ptr<sequential> channel0_model() {
  rng gen{5};
  auto model = std::make_unique<sequential>();
  model->add(std::make_unique<conv2d>(3, 1, 1, 1, 0, gen, /*bias=*/false));
  dv::testing::add_tiny_layers(*model, gen);
  const std::vector<param_ref> dst = model->params();
  const std::vector<param_ref> src = shared_tiny_world().model->params();
  dst.front().value->fill(0.0f);
  dst.front().value->data()[0] = 1.0f;
  for (std::size_t i = 0; i < src.size(); ++i) {
    *dst[i + 1].value = *src[i].value;
  }
  return model;
}

TEST(MalformedFrames, FailClosedOnEveryDirectScoringCall) {
  const auto& world = shared_tiny_world();
  const deep_validator& dv = fitted_validator();
  const std::unique_ptr<sequential> model = channel0_model();
  rng gen{9};
  tensor frame = tensor::uniform({3, 28, 28}, gen, 0.0f, 1.0f);
  const tensor digit = world.test.images.slice_rows(0, 1);
  std::copy_n(digit.data(), digit.numel(), frame.data());
  const validation_scores expected = dv.evaluate(*world.model, digit);
  ASSERT_EQ(expected.joint.size(), 1U);

  // A [C,H,W] frame is one frame, not C rows.
  const validation_scores scored[] = {dv.bank().evaluate(*model, frame),
                                      dv.evaluate(*model, frame)};
  for (const validation_scores& got : scored) {
    ASSERT_EQ(got.joint.size(), 1U);
    EXPECT_TRUE(same_bits(got.joint[0], expected.joint[0]));
    EXPECT_EQ(got.predictions[0], expected.predictions[0]);
    for (std::size_t l = 0; l < expected.per_layer.size(); ++l) {
      EXPECT_TRUE(same_bits(got.per_layer[l][0], expected.per_layer[l][0]));
    }
  }
  runtime_monitor monitor{*model, dv};
  const std::vector<monitor_verdict> verdicts = monitor.observe_batch(frame);
  ASSERT_EQ(verdicts.size(), 1U);
  EXPECT_TRUE(same_bits(verdicts[0].discrepancy, expected.joint[0]));
  EXPECT_EQ(verdicts[0].frame_invalid, dv.flags_invalid(expected.joint[0]));
  EXPECT_EQ(monitor.frames_seen(), 1);

  // An empty tensor or any other rank throws before a row is scored, and
  // the monitor folds nothing.
  const tensor malformed[] = {
      tensor{}, tensor::uniform({3 * 28 * 28}, gen, 0.0f, 1.0f),
      tensor::uniform({2, 3 * 28 * 28}, gen, 0.0f, 1.0f),
      tensor::uniform({1, 1, 3, 28, 28}, gen, 0.0f, 1.0f)};
  for (const tensor& bad : malformed) {
    SCOPED_TRACE(bad.shape_string());
    EXPECT_THROW((void)dv.bank().evaluate(*model, bad), std::invalid_argument);
    EXPECT_THROW((void)dv.evaluate(*model, bad), std::invalid_argument);
    EXPECT_THROW((void)monitor.observe_batch(bad), std::invalid_argument);
    EXPECT_THROW((void)monitor.observe(bad), std::invalid_argument);
  }
  EXPECT_EQ(monitor.frames_seen(), 1);
}

}  // namespace
}  // namespace dv
