// Tests for the strong-hash LRU cache layer (docs/CACHING.md): hash and
// cache unit behavior, the DV_CACHE knobs, and the bitwise-transparency
// contract — cached and uncached scoring must produce byte-identical
// results across DV_THREADS and every supported DV_SIMD level, for
// activation extraction, the scored rows the scorer's cache keeps across
// publishes, full deep_validator scores, serve-path scoring results, and
// monitor verdicts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/activation_cache.h"
#include "core/deep_validator.h"
#include "core/monitor.h"
#include "nn/probe_reducer.h"
#include "eval/metrics.h"
#include "nn/layers.h"
#include "serve/scoring.h"
#include "tensor/simd/simd.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/strong_lru.h"
#include "util/thread_pool.h"

namespace dv {
namespace {

using dv::testing::shared_tiny_world;

/// Restores the process-wide cache/thread/simd knobs when a test exits.
/// (cache_enabled() folds capacity in, but restoring its composite value
/// is behavior-preserving: capacity 0 reads as disabled either way.)
struct cache_state_guard {
  bool enabled = cache_enabled();
  std::size_t capacity = cache_capacity();
  ~cache_state_guard() {
    set_cache_enabled(enabled);
    set_cache_capacity(capacity);
    set_thread_count(0);
    reset_simd_level();
  }
};

bool bitwise_equal(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

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

/// A duplicate-heavy [n,1,28,28] stream: every frame repeats `repeat`
/// times before the next distinct one.
tensor duplicate_stream(std::int64_t n, std::int64_t repeat) {
  const auto& world = shared_tiny_world();
  tensor frames{{n, 1, 28, 28}};
  for (std::int64_t i = 0; i < n; ++i) {
    frames.set_sample(i, world.test.images.sample((i / repeat) % 16));
  }
  return frames;
}

// -- strong_hash ---------------------------------------------------------------

TEST(StrongHash, DeterministicAndLengthSensitive) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const auto a = strong_hash::of_bytes(data, sizeof(data));
  const auto b = strong_hash::of_bytes(data, sizeof(data));
  EXPECT_EQ(a, b);
  // A one-byte change anywhere flips the hash.
  char mutated[sizeof(data)];
  std::memcpy(mutated, data, sizeof(data));
  mutated[7] ^= 1;
  EXPECT_FALSE(a == strong_hash::of_bytes(mutated, sizeof(data)));
  // Prefixes and zero-padded extensions do not collide.
  EXPECT_FALSE(a == strong_hash::of_bytes(data, sizeof(data) - 1));
  const char padded[] = "abc";
  const char padded_longer[] = "abc\0";
  EXPECT_FALSE(strong_hash::of_bytes(padded, 3) ==
               strong_hash::of_bytes(padded_longer, 4));
}

TEST(StrongHash, EmptyAndShortInputs) {
  const auto empty = strong_hash::of_bytes(nullptr, 0);
  const char byte = 'x';
  EXPECT_FALSE(empty == strong_hash::of_bytes(&byte, 1));
  EXPECT_EQ(empty, strong_hash::of_bytes(nullptr, 0));
}

// -- strong_lru_cache ----------------------------------------------------------

strong_hash key_of(std::uint64_t hi, std::uint64_t lo) {
  strong_hash k;
  k.hi = hi;
  k.lo = lo;
  return k;
}

TEST(StrongLru, InsertFindUpdate) {
  strong_lru_cache<int> cache{4};
  EXPECT_EQ(cache.find(key_of(0, 1)), nullptr);
  cache.insert(key_of(0, 1), 10);
  ASSERT_NE(cache.find(key_of(0, 1)), nullptr);
  EXPECT_EQ(*cache.find(key_of(0, 1)), 10);
  cache.insert(key_of(0, 1), 11);  // update in place, no growth
  EXPECT_EQ(*cache.find(key_of(0, 1)), 11);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 2u);
}

TEST(StrongLru, EvictsLeastRecentlyUsedInOrder) {
  strong_lru_cache<int> cache{3};
  cache.insert(key_of(0, 1), 1);
  cache.insert(key_of(0, 2), 2);
  cache.insert(key_of(0, 3), 3);
  // Refresh key 1 so key 2 becomes the LRU victim.
  ASSERT_NE(cache.find(key_of(0, 1)), nullptr);
  cache.insert(key_of(0, 4), 4);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.contains(key_of(0, 1)));
  EXPECT_FALSE(cache.contains(key_of(0, 2)));
  EXPECT_TRUE(cache.contains(key_of(0, 3)));
  EXPECT_TRUE(cache.contains(key_of(0, 4)));
  // Next eviction follows recency order again: victim is key 3.
  cache.insert(key_of(0, 5), 5);
  EXPECT_FALSE(cache.contains(key_of(0, 3)));
  EXPECT_TRUE(cache.contains(key_of(0, 1)));
}

TEST(StrongLru, CollidingKeysShareOneProbeCluster) {
  // capacity 4 => 8 buckets; keys with equal lo share a home bucket and
  // chain by linear probing; full-key compares keep them distinct.
  strong_lru_cache<int> cache{4};
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(key_of(i, 5), static_cast<int>(i));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_NE(cache.find(key_of(i, 5)), nullptr) << i;
    EXPECT_EQ(*cache.find(key_of(i, 5)), static_cast<int>(i));
  }
  EXPECT_EQ(cache.size(), 4u);
}

TEST(StrongLru, BackwardShiftKeepsClusterReachableAfterEviction) {
  strong_lru_cache<int> cache{4};
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(key_of(i, 5), static_cast<int>(i));
  }
  // Evicts key 0 — the head of the probe cluster — which forces the
  // backward-shift compaction; every survivor must stay findable.
  cache.insert(key_of(4, 5), 4);
  EXPECT_FALSE(cache.contains(key_of(0, 5)));
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_NE(cache.find(key_of(i, 5)), nullptr) << i;
    EXPECT_EQ(*cache.find(key_of(i, 5)), static_cast<int>(i));
  }
}

TEST(StrongLru, ZeroCapacityIsInert) {
  strong_lru_cache<int> cache;
  cache.insert(key_of(0, 1), 1);
  EXPECT_EQ(cache.find(key_of(0, 1)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 0u);
}

TEST(StrongLru, TracksPayloadBytes) {
  strong_lru_cache<int> cache{2};
  cache.insert(key_of(0, 1), 1, 100);
  cache.insert(key_of(0, 2), 2, 40);
  EXPECT_EQ(cache.bytes(), 140u);
  cache.insert(key_of(0, 1), 1, 60);  // update shrinks the first entry
  EXPECT_EQ(cache.bytes(), 100u);
  cache.insert(key_of(0, 3), 3, 7);  // evicts key 2
  EXPECT_EQ(cache.bytes(), 67u);
  cache.clear();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// -- configuration knobs -------------------------------------------------------

TEST(CacheConfig, SettingsMatchEnvironment) {
  // Self-validating under the env reruns: whatever DV_CACHE /
  // DV_CACHE_CAPACITY the harness set must be what the process parsed.
  const char* raw_enabled = std::getenv("DV_CACHE");
  const char* raw_capacity = std::getenv("DV_CACHE_CAPACITY");
  std::size_t expect_capacity = 1024;
  if (raw_capacity != nullptr) {
    expect_capacity =
        static_cast<std::size_t>(std::strtoull(raw_capacity, nullptr, 10));
  }
  bool expect_enabled = expect_capacity > 0;
  if (raw_enabled != nullptr &&
      (std::strcmp(raw_enabled, "off") == 0 ||
       std::strcmp(raw_enabled, "0") == 0 ||
       std::strcmp(raw_enabled, "false") == 0)) {
    expect_enabled = false;
  }
  EXPECT_EQ(cache_capacity(), expect_capacity);
  EXPECT_EQ(cache_enabled(), expect_enabled);
}

TEST(CacheConfig, SettersOverrideInProcess) {
  cache_state_guard guard;
  set_cache_enabled(false);
  EXPECT_FALSE(cache_enabled());
  set_cache_enabled(true);
  set_cache_capacity(7);
  EXPECT_TRUE(cache_enabled());
  EXPECT_EQ(cache_capacity(), 7u);
  set_cache_capacity(0);  // capacity 0 behaves like DV_CACHE=off
  EXPECT_FALSE(cache_enabled());
}

// -- scorer cache: the scored row ---------------------------------------------

/// A second bank at fitted_validator()'s resolution with other SVMs, so a
/// publish between the two changes the scores.
const deep_validator& refitted_validator() {
  static const deep_validator dv = [] {
    const auto& world = shared_tiny_world();
    deep_validator out;
    deep_validator_config cfg;
    cfg.max_train_per_class = 40;
    cfg.svm.nu = 0.2;
    out.fit(*world.model, world.train, cfg);
    out.set_threshold(fitted_validator().threshold());
    return out;
  }();
  return dv;
}

double images_scored() {
  for (const auto& s : metrics::collect().samples) {
    if (s.name == "dv_validator_images_scored_total") return s.value;
  }
  return 0.0;
}

/// Turns the metrics registry on for one test.
struct metrics_on_guard {
  bool saved = metrics::enabled();
  metrics_on_guard() { metrics::set_enabled(true); }
  ~metrics_on_guard() { metrics::set_enabled(saved); }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every row of `got` carries the bits `expected` holds for it, judged by
/// `bank`, and names `generation`.
void expect_scored(const std::vector<scoring_result>& got,
                   const validation_scores& expected,
                   const validator_bank_view& bank, std::uint64_t generation) {
  ASSERT_EQ(got.size(), expected.joint.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(same_bits(got[i].joint, expected.joint[i]));
    EXPECT_EQ(got[i].prediction, expected.predictions[i]);
    EXPECT_EQ(got[i].invalid, bank.flags_invalid(expected.joint[i]));
    EXPECT_EQ(got[i].generation, generation);
    ASSERT_EQ(got[i].per_layer.size(), expected.per_layer.size());
    for (std::size_t l = 0; l < expected.per_layer.size(); ++l) {
      EXPECT_TRUE(same_bits(got[i].per_layer[l], expected.per_layer[l][i]));
    }
  }
}

TEST(ScorerCache, WarmPassCopiesScoredRowsWithoutScoring) {
  cache_state_guard guard;
  metrics_on_guard metrics_on;
  auto& world = shared_tiny_world();
  const validator_bank_view bank = fitted_validator().bank();
  const tensor frames = duplicate_stream(32, 8);
  engine_handle handle;
  (void)handle.publish(bank);

  set_cache_enabled(false);
  const validation_scores base =
      bank.evaluate(extract_activations(*world.model, frames, 1));
  engine_scorer uncached{*world.model, handle};
  expect_scored(uncached.score(frames), base, bank, 1);

  set_cache_enabled(true);
  set_cache_capacity(256);
  engine_scorer cached{*world.model, handle};
  // Cold: the bank scores each of the 4 distinct frames once.
  double before = images_scored();
  expect_scored(cached.score(frames), base, bank, 1);
  EXPECT_EQ(images_scored() - before, 4.0);
  // Warm: every row is a copy of its entry's scored row.
  before = images_scored();
  expect_scored(cached.score(frames), base, bank, 1);
  EXPECT_EQ(images_scored() - before, 0.0);
  EXPECT_EQ(cached.frame_cache()->lru().hits(), 32u);
  // The byte count holds each entry's scored row too: one double per
  // validated layer on top of the activations.
  activation_cache activations_only{256, 1};
  (void)extract_activations_cached(*world.model, frames, &activations_only);
  EXPECT_EQ(cached.frame_cache()->lru().bytes(),
            activations_only.lru().bytes() +
                4u * static_cast<std::size_t>(bank.validated_layers()) *
                    sizeof(double));
}

TEST(ScorerCache, PublishAtSameResolutionStartsAColdCache) {
  cache_state_guard guard;
  metrics_on_guard metrics_on;
  set_cache_enabled(true);
  set_cache_capacity(256);
  auto& world = shared_tiny_world();
  const validator_bank_view first = fitted_validator().bank();
  const validator_bank_view second = refitted_validator().bank();
  ASSERT_EQ(first.spatial(), second.spatial());
  const tensor frames = duplicate_stream(24, 3);
  const validation_scores first_expected = first.evaluate(*world.model, frames);
  const validation_scores second_expected =
      second.evaluate(*world.model, frames);
  ASSERT_NE(first_expected.joint, second_expected.joint);
  engine_handle handle;
  (void)handle.publish(first);
  engine_scorer scorer{*world.model, handle};
  expect_scored(scorer.score(frames), first_expected, first, 1);
  ASSERT_EQ(scorer.frame_cache()->lru().size(), 8u);

  // Every entry holds a row the old bank scored, so the first batch after
  // the publish starts a new cache: every row misses, and the new bank
  // scores each of the 8 distinct frames once, bit-equal to a fresh
  // evaluate of it.
  (void)handle.publish(second);
  double before = images_scored();
  expect_scored(scorer.score(frames), second_expected, second, 2);
  EXPECT_EQ(images_scored() - before, 8.0);
  const auto& lru = scorer.frame_cache()->lru();
  EXPECT_EQ(lru.misses(), 24u);
  EXPECT_EQ(lru.hits(), 0u);
  EXPECT_EQ(lru.size(), 8u);

  // Warm again: the next batch scores no row.
  before = images_scored();
  expect_scored(scorer.score(frames), second_expected, second, 2);
  EXPECT_EQ(images_scored() - before, 0.0);
  EXPECT_EQ(lru.hits(), 24u);
}

TEST(ScorerCache, EvictionDeterministicAcrossThreadCounts) {
  cache_state_guard guard;
  auto& world = shared_tiny_world();
  const validator_bank_view first = fitted_validator().bank();
  const validator_bank_view second = refitted_validator().bank();
  // Runs of 3 over 16 distinct frames, served in batches of 5 through a
  // cache of 4: the rows of a run split across batches hit, and a frame
  // revisited 16 runs later was evicted long before.
  const tensor frames = duplicate_stream(60, 3);

  struct run_result {
    std::vector<scoring_result> rows;
    std::uint64_t hits{0}, misses{0}, evictions{0};
  };
  auto run = [&](int threads, bool cached) {
    set_thread_count(threads);
    set_cache_enabled(cached);
    set_cache_capacity(4);
    engine_handle handle;
    (void)handle.publish(first);
    engine_scorer scorer{*world.model, handle};
    run_result r;
    for (std::int64_t b = 0; b < frames.extent(0); b += 5) {
      // Mid-run (between rows 24 and 25 of one run), a new bank: the
      // scorer starts a new cache, so the run's later rows miss.
      if (b == 25) (void)handle.publish(second);
      for (auto& row : scorer.score(frames.slice_rows(b, b + 5))) {
        r.rows.push_back(std::move(row));
      }
    }
    if (const activation_cache* c = scorer.frame_cache()) {
      r.hits = c->lru().hits();
      r.misses = c->lru().misses();
      r.evictions = c->lru().evictions();
    }
    return r;
  };
  const run_result off = run(1, false);
  const run_result serial = run(1, true);
  const run_result threaded = run(8, true);
  for (const run_result* got : {&serial, &threaded}) {
    ASSERT_EQ(off.rows.size(), got->rows.size());
    for (std::size_t i = 0; i < off.rows.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_TRUE(same_bits(off.rows[i].joint, got->rows[i].joint));
      EXPECT_EQ(off.rows[i].per_layer, got->rows[i].per_layer);
      EXPECT_EQ(off.rows[i].prediction, got->rows[i].prediction);
      EXPECT_EQ(off.rows[i].generation, got->rows[i].generation);
    }
  }
  // Cache decisions happen at sequential program points, so the stats —
  // including which rows were evicted when — cannot depend on threads.
  EXPECT_EQ(serial.hits, threaded.hits);
  EXPECT_EQ(serial.misses, threaded.misses);
  EXPECT_EQ(serial.evictions, threaded.evictions);
  EXPECT_GT(serial.hits, 0u);
  EXPECT_GT(serial.evictions, 0u);
}

// -- activation cache ----------------------------------------------------------

TEST(ActivationCache, ExtractBitwiseIdenticalColdAndWarm) {
  cache_state_guard guard;
  auto& world = shared_tiny_world();
  const tensor frames = duplicate_stream(24, 4);

  set_cache_enabled(false);
  const activation_batch plain = extract_activations(*world.model, frames);
  EXPECT_EQ(plain.reduced_spatial, 0);
  set_cache_enabled(true);
  for (const int spatial : {1, 2}) {
    SCOPED_TRACE(spatial);
    activation_cache cache{256, spatial};
    const activation_batch cold =
        extract_activations_cached(*world.model, frames, &cache);
    const activation_batch warm =
        extract_activations_cached(*world.model, frames, &cache);

    // The cached batch holds what the bank reads: every probe reduced at
    // the cache's resolution, bit-equal to reducing the raw batch.
    for (const activation_batch* got : {&cold, &warm}) {
      EXPECT_EQ(got->reduced_spatial, spatial);
      EXPECT_TRUE(bitwise_equal(plain.logits, got->logits));
      EXPECT_EQ(plain.predictions, got->predictions);
      ASSERT_EQ(plain.probe_count(), got->probe_count());
      for (int p = 0; p < plain.probe_count(); ++p) {
        EXPECT_TRUE(bitwise_equal(
            reduce_probe(plain.probes[static_cast<std::size_t>(p)], spatial),
            got->probe_features(p, spatial)))
            << p;
      }
    }
    // 6 unique frames: the cold pass misses all 24 rows (in-batch
    // duplicates are not visible until the insert pass); the warm pass
    // hits all 24.
    EXPECT_EQ(cache.lru().size(), 6u);
    EXPECT_EQ(cache.lru().misses(), 24u);
    EXPECT_EQ(cache.lru().hits(), 24u);
  }
}

TEST(ActivationCache, MismatchedResolutionThrows) {
  cache_state_guard guard;
  set_cache_enabled(true);
  auto& world = shared_tiny_world();
  const tensor frames = duplicate_stream(4, 1);
  activation_cache cache{16, 1};
  const activation_batch acts =
      extract_activations_cached(*world.model, frames, &cache);
  EXPECT_THROW((void)acts.probe_features(0, 2), std::logic_error);
  // score_cached refuses a cache at another resolution than the bank's,
  // and a cache holding a frame no bank scored.
  const validator_bank_view bank = fitted_validator().bank();
  activation_cache grid{16, 2};
  EXPECT_THROW((void)score_cached(*world.model, frames, bank, &grid),
               std::invalid_argument);
  EXPECT_THROW((void)score_cached(*world.model, frames, bank, &cache),
               std::logic_error);
  // The tiny model's last probe is dense, which the reducer passes
  // through: the reduced batch still holds it, bit for bit.
  const activation_batch plain = extract_activations(*world.model, frames);
  EXPECT_TRUE(bitwise_equal(plain.last_probe_features(),
                            acts.last_probe_features()));

  // A convolutional last probe is gone once reduced.
  rng gen{5};
  sequential conv_last;
  conv_last.add(std::make_unique<conv2d>(1, 2, 3, 1, 1, gen));
  conv_last.add(std::make_unique<relu>(), /*probe=*/true);
  conv_last.add(std::make_unique<flatten>());
  conv_last.add(std::make_unique<dense>(2 * 28 * 28, 3, gen));
  activation_cache conv_cache{16, 1};
  const activation_batch reduced =
      extract_activations_cached(conv_last, frames, &conv_cache);
  EXPECT_THROW((void)reduced.last_probe_features(), std::logic_error);
  EXPECT_NO_THROW((void)extract_activations(conv_last, frames)
                      .last_probe_features());
}

TEST(ActivationCache, EntryHoldsLogitsAndReducedRows) {
  cache_state_guard guard;
  set_cache_enabled(true);
  auto& world = shared_tiny_world();
  const tensor frames = duplicate_stream(8, 1);
  const activation_batch plain = extract_activations(*world.model, frames);
  for (const int spatial : {1, 2}) {
    SCOPED_TRACE(spatial);
    std::int64_t floats = plain.logits.extent(1);
    for (const tensor& p : plain.probes) {
      floats += reduced_dimension(p.shape(), spatial);
    }
    activation_cache cache{16, spatial};
    (void)extract_activations_cached(*world.model, frames, &cache);
    ASSERT_EQ(cache.lru().size(), 8u);
    EXPECT_EQ(cache.lru().bytes(),
              8u * sizeof(float) * static_cast<std::size_t>(floats));
  }
}

// -- full scoring path ---------------------------------------------------------

TEST(FullPipeline, ScoresAndVerdictsBitwiseAcrossThreadsSimdAndCache) {
  cache_state_guard guard;
  auto& world = shared_tiny_world();
  const deep_validator& validator = fitted_validator();
  const tensor frames = duplicate_stream(48, 4);

  struct run_result {
    std::vector<double> joint;
    std::vector<std::vector<double>> per_layer;
    std::vector<std::int64_t> predictions;
    std::vector<monitor_verdict> verdicts;
  };
  auto run = [&]() {
    run_result r;
    auto s = validator.evaluate(*world.model, frames);
    r.joint = std::move(s.joint);
    r.per_layer = std::move(s.per_layer);
    r.predictions = std::move(s.predictions);
    runtime_monitor monitor{*world.model, validator};
    r.verdicts = monitor.observe_batch(frames);
    return r;
  };

  // Baseline: caching off, one thread, startup SIMD level.
  set_cache_enabled(false);
  set_thread_count(1);
  const run_result base = run();

  for (const auto level :
       {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
    if (!simd_level_supported(level)) continue;
    for (const int threads : {1, 8}) {
      for (const bool cached : {false, true}) {
        set_simd_level(level);
        set_thread_count(threads);
        set_cache_enabled(cached);
        set_cache_capacity(1024);
        // Two passes when cached: cold (filling) and warm (all hits) —
        // both must match the uncached baseline exactly.
        const int passes = cached ? 2 : 1;
        for (int pass = 0; pass < passes; ++pass) {
          const run_result got = run();
          const std::string ctx =
              std::string{simd_level_name(level)} + " threads=" +
              std::to_string(threads) + " cached=" + std::to_string(cached) +
              " pass=" + std::to_string(pass);
          ASSERT_EQ(base.joint.size(), got.joint.size()) << ctx;
          for (std::size_t i = 0; i < base.joint.size(); ++i) {
            ASSERT_EQ(base.joint[i], got.joint[i]) << ctx << " frame " << i;
          }
          ASSERT_EQ(base.per_layer, got.per_layer) << ctx;
          ASSERT_EQ(base.predictions, got.predictions) << ctx;
          ASSERT_EQ(base.verdicts.size(), got.verdicts.size()) << ctx;
          for (std::size_t i = 0; i < base.verdicts.size(); ++i) {
            ASSERT_EQ(base.verdicts[i].discrepancy,
                      got.verdicts[i].discrepancy)
                << ctx << " frame " << i;
            ASSERT_EQ(base.verdicts[i].prediction, got.verdicts[i].prediction)
                << ctx << " frame " << i;
            ASSERT_EQ(base.verdicts[i].frame_invalid,
                      got.verdicts[i].frame_invalid)
                << ctx << " frame " << i;
            ASSERT_EQ(base.verdicts[i].alarm, got.verdicts[i].alarm)
                << ctx << " frame " << i;
          }
        }
      }
    }
  }
}

TEST(FullPipeline, ServeScorerBitwiseWithActivationCache) {
  cache_state_guard guard;
  auto& world = shared_tiny_world();
  const deep_validator& validator = fitted_validator();
  const tensor frames = duplicate_stream(32, 8);
  engine_handle handle;
  handle.publish(validator.bank());

  set_cache_enabled(false);
  engine_scorer uncached{*world.model, handle};
  EXPECT_EQ(uncached.frame_cache(), nullptr);
  const auto base = uncached.score(frames);

  set_cache_enabled(true);
  set_cache_capacity(256);
  engine_scorer cached{*world.model, handle};
  ASSERT_NE(cached.frame_cache(), nullptr);
  for (int pass = 0; pass < 2; ++pass) {
    const auto got = cached.score(frames);
    ASSERT_EQ(base.size(), got.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].joint, got[i].joint) << i;
      EXPECT_EQ(base[i].prediction, got[i].prediction) << i;
      EXPECT_EQ(base[i].invalid, got[i].invalid) << i;
      EXPECT_EQ(base[i].per_layer, got[i].per_layer) << i;
    }
  }
  // Second pass: every frame came from the activation cache.
  EXPECT_EQ(cached.frame_cache()->lru().hits(), 32u);
  EXPECT_EQ(cached.frame_cache()->lru().size(), 4u);
}

// -- metrics -------------------------------------------------------------------

TEST(CacheMetrics, SnapshotGolden) {
  cache_state_guard guard;
  metrics::set_enabled(true);
  metrics::set_clock_frozen(true);
  metrics::reset();
  {
    strong_lru_cache<int> cache{2, "testgold"};
    (void)cache.find(key_of(0, 1));       // miss
    cache.insert(key_of(0, 1), 1, 8);
    (void)cache.find(key_of(0, 1));       // hit
    cache.insert(key_of(0, 2), 2, 8);
    cache.insert(key_of(0, 3), 3, 8);     // evicts key 1

    const auto snap = metrics::collect();
    auto value_of = [&](const std::string& name) -> double {
      for (const auto& s : snap.samples) {
        if (s.name == name) return s.value;
      }
      ADD_FAILURE() << "series not found: " << name;
      return -1.0;
    };
    EXPECT_EQ(value_of("dv_cache_hits_total{cache=\"testgold\"}"), 1.0);
    EXPECT_EQ(value_of("dv_cache_misses_total{cache=\"testgold\"}"), 1.0);
    EXPECT_EQ(value_of("dv_cache_evictions_total{cache=\"testgold\"}"), 1.0);
    EXPECT_EQ(value_of("dv_cache_bytes{cache=\"testgold\"}"), 16.0);
  }
  // Destruction releases the label's bytes back to zero.
  strong_lru_cache<int> probe{1, "testgold"};
  probe.insert(key_of(0, 9), 9, 4);
  probe.clear();
  const auto snap = metrics::collect();
  for (const auto& s : snap.samples) {
    if (s.name == "dv_cache_bytes{cache=\"testgold\"}") {
      EXPECT_EQ(s.value, 0.0);
    }
  }
  metrics::reset();
  metrics::set_clock_frozen(false);
  metrics::set_enabled(false);
}

TEST(CacheMetrics, UnlabeledCacheRecordsNothing) {
  cache_state_guard guard;
  metrics::set_enabled(true);
  metrics::reset();
  strong_lru_cache<int> cache{2};
  (void)cache.find(key_of(0, 1));
  cache.insert(key_of(0, 1), 1);
  EXPECT_EQ(metrics::series_count(), 0u);
  metrics::reset();
  metrics::set_enabled(false);
}

}  // namespace
}  // namespace dv
