// Tests for the flat snapshot format (docs/SNAPSHOTS.md): writer/view
// round-trips per section kind, the 64-byte payload alignment promise,
// the corruption contract (EVERY flipped byte and EVERY truncation length
// raises serialize_error — never UB), fail-closed bank loading (bad
// settings and non-finite values), and the bitwise-identity matrix — a
// snapshot-backed validator_bank_view scores byte-identically to the
// fitted in-memory bank across DV_THREADS x DV_SIMD x DV_CACHE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/deep_validator.h"
#include "core/validator_bank.h"
#include "core/weighted_joint.h"
#include "eval/metrics.h"
#include "tensor/simd/simd.h"
#include "test_util.h"
#include "util/flat_snapshot.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace dv {
namespace {

using dv::testing::shared_tiny_world;

/// Restores the process-wide cache/thread/simd knobs on exit.
struct knob_guard {
  bool cache = cache_enabled();
  std::size_t capacity = cache_capacity();
  ~knob_guard() {
    set_cache_enabled(cache);
    set_cache_capacity(capacity);
    set_thread_count(0);
    reset_simd_level();
  }
};

std::vector<simd_level> supported_levels() {
  std::vector<simd_level> out;
  for (simd_level lvl :
       {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
    if (simd_level_supported(lvl)) out.push_back(lvl);
  }
  return out;
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

/// The shared snapshot artifact of fitted_validator(), written once.
const std::string& fitted_snapshot_path() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "dv-fitted-bank.dvsnap";
    fitted_validator().save_snapshot(p);
    return p;
  }();
  return path;
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

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

void expect_identical_scores(const validation_scores& a,
                             const validation_scores& b) {
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_TRUE(same_doubles(a.joint, b.joint));
  ASSERT_EQ(a.per_layer.size(), b.per_layer.size());
  for (std::size_t l = 0; l < a.per_layer.size(); ++l) {
    EXPECT_TRUE(same_doubles(a.per_layer[l], b.per_layer[l]))
        << "layer " << l;
  }
}

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

// -- writer / view units ------------------------------------------------------

TEST(SnapshotFormat, RoundTripAllKinds) {
  snapshot_writer w;
  const std::vector<float> f32v{1.0f, -2.5f, 3.25f};
  const std::vector<double> f64v{0.125, -7.5};
  const std::vector<std::int32_t> i32v{-1, 0, 7, 42};
  const std::vector<std::int64_t> i64v{1LL << 40, -9};
  const char raw[] = "opaque";
  w.add_f32("a/f32", f32v);
  w.add_f64("a/f64", f64v);
  w.add_i32("b/i32", i32v);
  w.add_i64("b/i64", i64v);
  w.add_bytes("b/raw", raw, sizeof(raw));
  w.add_f64_scalar("s/f", 2.75);
  w.add_i64_scalar("s/i", -13);
  EXPECT_EQ(w.section_count(), 7u);

  const auto view = snapshot_view::from_image(w.serialize());
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->section_count(), 7u);

  const auto f32s = view->f32("a/f32");
  ASSERT_EQ(f32s.size(), f32v.size());
  EXPECT_EQ(std::memcmp(f32s.data(), f32v.data(), f32v.size() * 4), 0);
  EXPECT_TRUE(aligned64(f32s.data()));

  const auto f64s = view->f64("a/f64");
  ASSERT_EQ(f64s.size(), f64v.size());
  EXPECT_EQ(std::memcmp(f64s.data(), f64v.data(), f64v.size() * 8), 0);
  EXPECT_TRUE(aligned64(f64s.data()));

  const auto i32s = view->i32("b/i32");
  ASSERT_EQ(i32s.size(), i32v.size());
  EXPECT_EQ(std::memcmp(i32s.data(), i32v.data(), i32v.size() * 4), 0);
  EXPECT_TRUE(aligned64(i32s.data()));

  const auto i64s = view->i64("b/i64");
  ASSERT_EQ(i64s.size(), i64v.size());
  EXPECT_TRUE(aligned64(i64s.data()));

  const auto rawb = view->bytes("b/raw");
  ASSERT_EQ(rawb.size(), sizeof(raw));
  EXPECT_EQ(std::memcmp(rawb.data(), raw, sizeof(raw)), 0);
  EXPECT_TRUE(aligned64(rawb.data()));

  EXPECT_EQ(view->f64_scalar("s/f"), 2.75);
  EXPECT_EQ(view->i64_scalar("s/i"), -13);
  EXPECT_TRUE(view->has("a/f32"));
  EXPECT_FALSE(view->has("a/F32"));
}

TEST(SnapshotFormat, EmptySnapshotRoundTrips) {
  const auto view = snapshot_view::from_image(snapshot_writer{}.serialize());
  EXPECT_EQ(view->section_count(), 0u);
  EXPECT_FALSE(view->has("anything"));
}

TEST(SnapshotFormat, WriterRejectsDuplicateAndEmptyNames) {
  snapshot_writer w;
  w.add_f64_scalar("x", 1.0);
  EXPECT_THROW(w.add_f64_scalar("x", 2.0), std::invalid_argument);
  EXPECT_THROW(w.add_i64_scalar("", 0), std::invalid_argument);
}

TEST(SnapshotFormat, TypedAccessChecksKindAndSize) {
  snapshot_writer w;
  w.add_f32("f", std::vector<float>{1.0f, 2.0f});
  w.add_f64("two", std::vector<double>{1.0, 2.0});
  const auto view = snapshot_view::from_image(w.serialize());
  EXPECT_THROW((void)view->f64("f"), serialize_error);        // wrong kind
  EXPECT_THROW((void)view->i32("f"), serialize_error);        // wrong kind
  EXPECT_THROW((void)view->f32("missing"), serialize_error);  // absent
  EXPECT_THROW((void)view->f64_scalar("two"), serialize_error);  // not scalar
  EXPECT_NO_THROW((void)view->bytes("f"));  // bytes view of anything is fine
}

// -- file round trip ----------------------------------------------------------

TEST(SnapshotFile, FinishOpenRoundTrip) {
  snapshot_writer w;
  const std::vector<double> payload{3.5, -1.25, 0.0};
  w.add_f64("p", payload);
  const std::string path = ::testing::TempDir() + "dv-roundtrip.dvsnap";
  w.finish(path);

  const auto image = w.serialize();
  const auto view = snapshot_view::open(path);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->path(), path);
  EXPECT_EQ(view->byte_size(), image.size());
  const auto p = view->f64("p");
  ASSERT_EQ(p.size(), payload.size());
  EXPECT_EQ(std::memcmp(p.data(), payload.data(), payload.size() * 8), 0);
  EXPECT_TRUE(aligned64(p.data()));
  // A file and its in-memory image validate the same digest.
  EXPECT_EQ(view->digest(), snapshot_view::from_image(image)->digest());
}

TEST(SnapshotFile, OpenMissingFileThrows) {
  EXPECT_THROW(
      (void)snapshot_view::open(::testing::TempDir() + "dv-no-such.dvsnap"),
      serialize_error);
  // A directory is not a snapshot either.
  EXPECT_THROW((void)snapshot_view::open(::testing::TempDir()),
               serialize_error);
}

// -- corruption drill ---------------------------------------------------------

TEST(SnapshotCorruption, EveryFlippedByteFails) {
  snapshot_writer w;
  w.add_f32("bank/x", std::vector<float>{1.0f, 2.0f, 3.0f});
  w.add_i64_scalar("bank/n", 3);
  const auto image = w.serialize();
  ASSERT_NO_THROW((void)snapshot_view::from_image(image));
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto mutated = image;
    mutated[i] ^= 0x01;
    EXPECT_THROW((void)snapshot_view::from_image(mutated), serialize_error)
        << "flipped byte " << i << " of " << image.size();
  }
}

TEST(SnapshotCorruption, EveryTruncationLengthFails) {
  snapshot_writer w;
  w.add_f64("bank/y", std::vector<double>{4.0, 5.0});
  const auto image = w.serialize();
  ASSERT_NO_THROW((void)snapshot_view::from_image(image));
  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_THROW((void)snapshot_view::from_image(
                     std::span<const std::uint8_t>{image.data(), len}),
                 serialize_error)
        << "truncated to " << len << " of " << image.size();
  }
  // Trailing garbage is also rejected, not silently ignored.
  auto extended = image;
  extended.push_back(0);
  EXPECT_THROW((void)snapshot_view::from_image(extended), serialize_error);
}

// -- bank snapshots -----------------------------------------------------------

TEST(SnapshotBank, BitwiseIdentityMatrix) {
  knob_guard guard;
  const auto& dv = fitted_validator();
  const auto& world = shared_tiny_world();
  const auto bank =
      validator_bank_view::from_snapshot(snapshot_view::open(
          fitted_snapshot_path()));
  ASSERT_TRUE(bank.valid());
  EXPECT_EQ(bank.validated_layers(), dv.validated_layers());
  EXPECT_EQ(bank.threshold(), dv.threshold());
  const tensor frames = subset_frames(24);
  for (int threads : {1, 8}) {
    for (simd_level lvl : supported_levels()) {
      for (bool cache : {false, true}) {
        set_thread_count(threads);
        set_simd_level(lvl);
        set_cache_enabled(cache);
        const auto fitted = dv.evaluate(*world.model, frames);
        const auto loaded = bank.evaluate(*world.model, frames);
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " simd="
                     << simd_level_name(lvl) << " cache=" << cache);
        expect_identical_scores(fitted, loaded);
      }
    }
  }
}

TEST(SnapshotBank, MaterializedValidatorMatchesOriginal) {
  const auto& dv = fitted_validator();
  const auto& world = shared_tiny_world();
  const deep_validator loaded =
      deep_validator::load_snapshot(fitted_snapshot_path());
  EXPECT_EQ(loaded.validated_layers(), dv.validated_layers());
  EXPECT_EQ(loaded.threshold(), dv.threshold());
  const tensor frames = subset_frames(16);
  expect_identical_scores(dv.evaluate(*world.model, frames),
                          loaded.evaluate(*world.model, frames));
}

TEST(SnapshotBank, EmbeddedWeightedCombinerMatchesFitted) {
  const auto& dv = fitted_validator();
  const auto& world = shared_tiny_world();
  weighted_joint_validator weighted;
  const tensor outliers =
      weighted_joint_validator::make_noise_outliers({32, 1, 28, 28}, 99);
  weighted.fit(*world.model, dv, world.test.images, outliers);
  ASSERT_TRUE(weighted.fitted());

  const std::string path = ::testing::TempDir() + "dv-weighted-bank.dvsnap";
  dv.save_snapshot(path, &weighted);
  const auto bank =
      validator_bank_view::from_snapshot(snapshot_view::open(path));
  ASSERT_TRUE(bank.weighted().valid());
  EXPECT_EQ(bank.weighted().bias(), weighted.bias());

  const tensor frames = subset_frames(16);
  const auto expected = weighted.score_batch(*world.model, dv, frames);
  const auto scores = bank.evaluate(*world.model, frames);
  const std::size_t layers = scores.per_layer.size();
  ASSERT_EQ(bank.weighted().weights().size(), layers);
  std::vector<double> row(layers);
  for (std::size_t j = 0; j < expected.size(); ++j) {
    for (std::size_t l = 0; l < layers; ++l) row[l] = scores.per_layer[l][j];
    const double got = bank.weighted().decision(row);
    EXPECT_EQ(std::memcmp(&got, &expected[j], sizeof(double)), 0)
        << "image " << j;
  }
}

TEST(SnapshotBank, FromSnapshotRejectsNonBankFile) {
  snapshot_writer w;
  w.add_f64_scalar("not/a/bank", 1.0);
  const auto view = snapshot_view::from_image(w.serialize());
  EXPECT_THROW((void)validator_bank_view::from_snapshot(view),
               serialize_error);
}

/// A one-layer bank with a weighted combiner, written section by section
/// in deep_validator::save_snapshot's layout from a real fitted layer. The
/// header says `max_batch`, and the first value of section `poison` (none
/// when empty) becomes `value`, so each test changes exactly one thing.
std::string test_bank(std::int64_t max_batch, const std::string& poison = "",
                      double value = 0.0) {
  static const layer_validator layer = [] {
    rng gen{51};
    const tensor features = tensor::randn({12, 3}, gen);
    const std::vector<std::int64_t> labels{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
    layer_validator out;
    out.fit(features, labels, 2, {});
    return out;
  }();
  const layer_validator_view v = layer.view();
  snapshot_writer w;
  const auto put_f32 = [&](const std::string& name,
                           std::span<const float> src) {
    std::vector<float> copy(src.begin(), src.end());
    if (name == poison) copy[0] = static_cast<float>(value);
    w.add_f32(name, copy);
  };
  const auto put_f64 = [&](const std::string& name, std::vector<double> copy) {
    if (name == poison) copy[0] = value;
    w.add_f64(name, copy);
  };
  w.add_i64_scalar("bank/format", 1);
  const std::int64_t meta_i[3] = {1, max_batch, 1};
  w.add_i64("bank/meta_i", meta_i);
  put_f64("bank/meta_f", {0.5});
  const std::int32_t probes[1] = {0};
  w.add_i32("bank/probes", probes);
  const std::int64_t classes[1] = {v.num_classes()};
  w.add_i64("bank/L0/meta_i", classes);
  put_f32("bank/L0/scaler/mean", v.scaler().mean());
  put_f32("bank/L0/scaler/istd", v.scaler().inv_std());
  for (int k = 0; k < v.num_classes(); ++k) {
    const one_class_svm_view& svm = v.svms()[static_cast<std::size_t>(k)];
    const std::string prefix = "bank/L0/c" + std::to_string(k) + "/";
    const std::int64_t svm_meta[4] = {static_cast<std::int64_t>(svm.kernel()),
                                      svm.iterations_used(),
                                      svm.support_count(), svm.dimension()};
    w.add_i64(prefix + "meta_i", svm_meta);
    put_f64(prefix + "meta_f", {svm.gamma(), svm.rho()});
    put_f32(prefix + "sv", svm.support_vectors());
    put_f64(prefix + "alpha", {svm.alpha().begin(), svm.alpha().end()});
  }
  put_f64("bank/weighted/weights", {0.75});
  put_f64("bank/weighted/bias", {-0.25});
  std::string tag = poison.empty() ? "clean" : poison;
  std::replace(tag.begin(), tag.end(), '/', '-');
  const std::string path = ::testing::TempDir() + "dv-bank-" +
                           std::to_string(max_batch) + "-" + tag + ".dvsnap";
  w.finish(path);
  return path;
}

TEST(SnapshotBank, BothLoadersRejectZeroMaxBatch) {
  const std::string bad = test_bank(0);
  EXPECT_THROW((void)deep_validator::load_snapshot(bad), serialize_error);
  EXPECT_THROW(
      (void)validator_bank_view::from_snapshot(snapshot_view::open(bad)),
      serialize_error);
  // The same bank with a usable batch size loads through both.
  const std::string good = test_bank(1);
  EXPECT_EQ(deep_validator::load_snapshot(good).batching().max_batch, 1);
  EXPECT_EQ(validator_bank_view::from_snapshot(snapshot_view::open(good))
                .batching()
                .max_batch,
            1);
}

TEST(SnapshotBank, BothLoadersRejectNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* section;
    double value;
  } cases[] = {
      {"bank/L0/c0/sv", nan},          {"bank/L0/c1/alpha", inf},
      {"bank/meta_f", nan},            {"bank/L0/c0/meta_f", -inf},
      {"bank/L0/scaler/istd", inf},    {"bank/weighted/weights", nan},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.section);
    const std::string path = test_bank(1, c.section, c.value);
    try {
      (void)deep_validator::load_snapshot(path);
      ADD_FAILURE() << "deep_validator::load_snapshot accepted the bank";
    } catch (const serialize_error& e) {
      EXPECT_NE(std::string{e.what()}.find(c.section), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(
        (void)validator_bank_view::from_snapshot(snapshot_view::open(path)),
        serialize_error);
  }
  // The unmodified copy loads and scores finite values.
  const std::string clean = test_bank(1);
  EXPECT_NO_THROW((void)deep_validator::load_snapshot(clean));
  const auto bank =
      validator_bank_view::from_snapshot(snapshot_view::open(clean));
  ASSERT_TRUE(bank.weighted().valid());
  const float row[3] = {0.1f, -0.2f, 0.3f};
  EXPECT_TRUE(std::isfinite(bank.layers()[0].discrepancy(0, row)));
}

// -- metrics ------------------------------------------------------------------

TEST(SnapshotMetrics, LoadFamilyRecorded) {
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  const auto view = snapshot_view::open(fitted_snapshot_path());
  const auto snap = metrics::collect();
  metrics::set_enabled(was_enabled);

  const auto find = [&](std::string_view name) -> const metrics::sample* {
    for (const auto& s : snap.samples) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const auto* loads = find("dv_snapshot_loads_total");
  ASSERT_NE(loads, nullptr);
  EXPECT_GE(loads->value, 1.0);
  const auto* seconds = find("dv_snapshot_load_seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->kind, metrics::kind::histogram);
  EXPECT_GE(seconds->count, 1u);
  const auto* bytes = find("dv_snapshot_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GE(bytes->value, static_cast<double>(view->byte_size()));
}

}  // namespace
}  // namespace dv
