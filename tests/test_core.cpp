#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "core/deep_validator.h"
#include "core/feature_scaler.h"
#include "core/probe_reducer.h"
#include "test_util.h"
#include "util/flat_snapshot.h"
#include "util/serialize.h"

namespace dv {
namespace {

using dv::testing::shared_tiny_world;

// -- Probe reducer --------------------------------------------------------------

TEST(ProbeReducer, GapAveragesPlanes) {
  tensor probe = tensor::from_data({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const tensor out = reduce_probe(probe, 1);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 25.0f);
}

TEST(ProbeReducer, Spatial2PreservesQuadrants) {
  // 4x4 plane with distinct quadrant values.
  tensor probe{{1, 1, 4, 4}};
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 4; ++x) {
      probe.at4(0, 0, y, x) =
          static_cast<float>((y / 2) * 2 + (x / 2));  // 0,1,2,3 by quadrant
    }
  }
  const tensor out = reduce_probe(probe, 2);
  EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{1, 4}));
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 3.0f);
}

TEST(ProbeReducer, DensePassThrough) {
  rng gen{1};
  const tensor probe = tensor::randn({3, 7}, gen);
  const tensor out = reduce_probe(probe, 4);
  EXPECT_EQ(out.shape(), probe.shape());
  for (std::int64_t i = 0; i < probe.numel(); ++i) {
    EXPECT_EQ(out[i], probe[i]);
  }
}

TEST(ProbeReducer, SpatialClampsToPlaneSize) {
  rng gen{2};
  const tensor probe = tensor::randn({1, 3, 2, 2}, gen);
  const tensor out = reduce_probe(probe, 5);  // clamps to 2
  EXPECT_EQ(out.extent(1), 3 * 2 * 2);
}

TEST(ProbeReducer, ReducedDimensionMatches) {
  EXPECT_EQ(reduced_dimension({4, 8, 6, 6}, 1), 8);
  EXPECT_EQ(reduced_dimension({4, 8, 6, 6}, 2), 32);
  EXPECT_EQ(reduced_dimension({4, 100}, 3), 100);
  EXPECT_THROW(reduced_dimension({4}, 1), std::invalid_argument);
}

TEST(ProbeReducer, InvalidSpatialThrows) {
  tensor probe{{1, 1, 2, 2}};
  EXPECT_THROW(reduce_probe(probe, 0), std::invalid_argument);
}

// -- Feature scaler --------------------------------------------------------------

TEST(FeatureScaler, StandardizesColumns) {
  rng gen{3};
  tensor features{{100, 2}};
  for (std::int64_t i = 0; i < 100; ++i) {
    features.at2(i, 0) = static_cast<float>(gen.normal(5.0, 2.0));
    features.at2(i, 1) = static_cast<float>(gen.normal(-3.0, 0.5));
  }
  feature_scaler scaler;
  scaler.fit(features);
  tensor scaled = features;
  scaler.transform(scaled);
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sum2 = 0.0;
    for (std::int64_t i = 0; i < 100; ++i) {
      sum += scaled.at2(i, c);
      sum2 += static_cast<double>(scaled.at2(i, c)) * scaled.at2(i, c);
    }
    EXPECT_NEAR(sum / 100.0, 0.0, 1e-4);
    EXPECT_NEAR(sum2 / 100.0, 1.0, 1e-3);
  }
}

TEST(FeatureScaler, ConstantColumnIsSafe) {
  tensor features = tensor::from_data({3, 1}, {2.0f, 2.0f, 2.0f});
  feature_scaler scaler;
  scaler.fit(features);
  tensor scaled = features;
  scaler.transform(scaled);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(scaled[i], 0.0f);
}

TEST(FeatureScaler, RowTransformMatchesMatrix) {
  rng gen{4};
  tensor features = tensor::randn({20, 3}, gen);
  feature_scaler scaler;
  scaler.fit(features);
  tensor scaled = features;
  scaler.transform(scaled);
  std::vector<float> row{features.data(), features.data() + 3};
  scaler.transform_row(row);
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(row[static_cast<std::size_t>(j)], scaled.at2(0, j));
  }
}

TEST(FeatureScaler, SaveLoadRoundTrip) {
  rng gen{5};
  tensor features = tensor::randn({10, 4}, gen);
  feature_scaler scaler;
  scaler.fit(features);
  snapshot_writer w;
  scaler.save_snapshot(w, "s/");
  const auto view = snapshot_view::from_image(w.serialize());
  const feature_scaler loaded = feature_scaler::load_snapshot(*view, "s/");
  std::vector<float> a{features.data(), features.data() + 4};
  std::vector<float> b = a;
  scaler.transform_row(a);
  loaded.transform_row(b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(FeatureScaler, UnfittedTransformThrows) {
  feature_scaler scaler;
  tensor x{{1, 2}};
  EXPECT_THROW(scaler.transform(x), std::logic_error);
}

// -- Layer validator --------------------------------------------------------------

TEST(LayerValidator, InlierNegativeOutlierPositiveDiscrepancy) {
  // Two well-separated classes in 2-D.
  rng gen{6};
  tensor features{{200, 2}};
  std::vector<std::int64_t> labels(200);
  for (std::int64_t i = 0; i < 200; ++i) {
    const bool cls = i % 2 == 1;
    labels[static_cast<std::size_t>(i)] = cls ? 1 : 0;
    const double cx = cls ? 10.0 : -10.0;
    features.at2(i, 0) = static_cast<float>(gen.normal(cx, 1.0));
    features.at2(i, 1) = static_cast<float>(gen.normal(0.0, 1.0));
  }
  layer_validator validator;
  one_class_svm_config cfg;
  cfg.nu = 0.1;
  validator.fit(features, labels, 2, cfg);
  EXPECT_TRUE(validator.fitted());
  EXPECT_EQ(validator.num_classes(), 2);

  const float inlier0[2] = {-10.0f, 0.0f};
  EXPECT_LT(validator.discrepancy(0, {inlier0, 2}), 0.0);
  // The same point judged against class 1's reference is an outlier.
  EXPECT_GT(validator.discrepancy(1, {inlier0, 2}), 0.0);
}

TEST(LayerValidator, MissingClassThrows) {
  tensor features = tensor::from_data({2, 1}, {0.0f, 1.0f});
  const std::vector<std::int64_t> labels{0, 0};
  layer_validator validator;
  EXPECT_THROW(validator.fit(features, labels, 2, {}), std::invalid_argument);
}

TEST(LayerValidator, BadPredictedClassThrows) {
  rng gen{7};
  tensor features = tensor::randn({8, 2}, gen);
  const std::vector<std::int64_t> labels{0, 1, 0, 1, 0, 1, 0, 1};
  layer_validator validator;
  validator.fit(features, labels, 2, {});
  const float x[2] = {0, 0};
  EXPECT_THROW(validator.discrepancy(2, {x, 2}), std::out_of_range);
  EXPECT_THROW(validator.discrepancy(-1, {x, 2}), std::out_of_range);
}

// -- Deep validator (uses the shared trained tiny model) ---------------------------

deep_validator_config tiny_dv_config() {
  deep_validator_config cfg;
  cfg.max_train_per_class = 40;
  cfg.svm.nu = 0.1;
  return cfg;
}

TEST(DeepValidator, FitAndEvaluateShapes) {
  const auto& world = shared_tiny_world();
  deep_validator dv;
  dv.fit(*world.model, world.train, tiny_dv_config());
  EXPECT_TRUE(dv.fitted());
  EXPECT_EQ(dv.validated_layers(), 3);

  const tensor batch = world.test.images.slice_rows(0, 10);
  const auto scores = dv.evaluate(*world.model, batch);
  EXPECT_EQ(scores.joint.size(), 10u);
  EXPECT_EQ(scores.per_layer.size(), 3u);
  EXPECT_EQ(scores.per_layer[0].size(), 10u);
  EXPECT_EQ(scores.predictions.size(), 10u);
  // Joint is the sum of layers (Equation 3).
  for (std::size_t i = 0; i < 10; ++i) {
    double sum = 0.0;
    for (const auto& layer : scores.per_layer) sum += layer[i];
    EXPECT_NEAR(scores.joint[i], sum, 1e-9);
  }
}

TEST(DeepValidator, CleanImagesMostlyNegative) {
  const auto& world = shared_tiny_world();
  deep_validator dv;
  dv.fit(*world.model, world.train, tiny_dv_config());
  const auto scores = dv.evaluate(*world.model, world.test.images);
  std::int64_t negative = 0;
  for (const double d : scores.joint) negative += d < 0.0 ? 1 : 0;
  EXPECT_GT(static_cast<double>(negative) / scores.joint.size(), 0.6);
}

TEST(DeepValidator, NoiseImagesScoreHigherThanClean) {
  const auto& world = shared_tiny_world();
  deep_validator dv;
  dv.fit(*world.model, world.train, tiny_dv_config());
  rng gen{8};
  const tensor noise = tensor::uniform({50, 1, 28, 28}, gen, 0.0f, 1.0f);
  const auto clean = dv.evaluate(*world.model, world.test.images).joint;
  const auto anomalous = dv.evaluate(*world.model, noise).joint;
  double clean_mean = 0.0, anom_mean = 0.0;
  for (const double d : clean) clean_mean += d;
  for (const double d : anomalous) anom_mean += d;
  clean_mean /= static_cast<double>(clean.size());
  anom_mean /= static_cast<double>(anomalous.size());
  EXPECT_GT(anom_mean, clean_mean);
}

TEST(DeepValidator, LastProbesRestrictsValidators) {
  const auto& world = shared_tiny_world();
  deep_validator_config cfg = tiny_dv_config();
  cfg.last_probes = 2;
  deep_validator dv;
  dv.fit(*world.model, world.train, cfg);
  EXPECT_EQ(dv.validated_layers(), 2);
  EXPECT_EQ(dv.probe_index(0), 1);
  EXPECT_EQ(dv.probe_index(1), 2);
}

TEST(DeepValidator, ThresholdFlagging) {
  deep_validator dv;
  dv.set_threshold(0.5);
  EXPECT_TRUE(dv.flags_invalid(0.6));
  EXPECT_FALSE(dv.flags_invalid(0.4));
  EXPECT_FALSE(dv.flags_invalid(0.5));
}

TEST(DeepValidator, NanJointFailsClosed) {
  deep_validator dv;
  dv.set_threshold(0.5);
  EXPECT_TRUE(dv.flags_invalid(std::numeric_limits<double>::quiet_NaN()));
  const validator_bank_view bank{{}, {}, 1, batch_config{}, 0.5};
  EXPECT_TRUE(bank.flags_invalid(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(bank.flags_invalid(0.6));
  EXPECT_FALSE(bank.flags_invalid(0.5));
  EXPECT_FALSE(bank.flags_invalid(-std::numeric_limits<double>::infinity()));
}

TEST(DeepValidator, FitRejectsSettingsThatWouldHang) {
  const auto& world = shared_tiny_world();
  deep_validator_config cfg = tiny_dv_config();
  cfg.batch.max_batch = 0;
  deep_validator dv;
  EXPECT_THROW(dv.fit(*world.model, world.train, cfg), std::invalid_argument);
  cfg.batch.max_batch = 16;
  cfg.spatial = 0;
  EXPECT_THROW(dv.fit(*world.model, world.train, cfg), std::invalid_argument);
  EXPECT_FALSE(dv.fitted());
}

TEST(DeepValidator, SaveLoadReproducesScores) {
  const std::string path = ::testing::TempDir() + "/dv_rt.dvsnap";
  const auto& world = shared_tiny_world();
  deep_validator dv;
  dv.fit(*world.model, world.train, tiny_dv_config());
  dv.set_threshold(1.25);
  dv.save_snapshot(path);
  const deep_validator loaded = deep_validator::load_snapshot(path);
  EXPECT_EQ(loaded.validated_layers(), dv.validated_layers());
  EXPECT_DOUBLE_EQ(loaded.threshold(), 1.25);
  const tensor batch = world.test.images.slice_rows(0, 5);
  const auto a = dv.evaluate(*world.model, batch).joint;
  const auto b = loaded.evaluate(*world.model, batch).joint;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
  std::remove(path.c_str());
}

TEST(DeepValidator, JointDiscrepancySingleImageMatchesBatch) {
  const auto& world = shared_tiny_world();
  deep_validator dv;
  dv.fit(*world.model, world.train, tiny_dv_config());
  const tensor img = world.test.images.sample(3);
  const double single = dv.joint_discrepancy(*world.model, img);
  const auto batch =
      dv.evaluate(*world.model, world.test.images.slice_rows(3, 4)).joint;
  EXPECT_NEAR(single, batch.front(), 1e-9);
}

TEST(DeepValidator, UnfittedEvaluateThrows) {
  const auto& world = shared_tiny_world();
  deep_validator dv;
  EXPECT_THROW(dv.evaluate(*world.model, world.test.images.slice_rows(0, 1)),
               std::logic_error);
}

}  // namespace
}  // namespace dv
