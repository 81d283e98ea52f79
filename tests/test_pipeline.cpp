#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "pipeline/artifacts.h"
#include "pipeline/config.h"
#include "pipeline/corner_suite.h"
#include "pipeline/models.h"

namespace dv {
namespace {

TEST(Config, StandardConfigPerKind) {
  const experiment_config digits = standard_config(dataset_kind::digits);
  EXPECT_EQ(digits.data.kind, dataset_kind::digits);
  EXPECT_GT(digits.data.train_size, 0);
  EXPECT_EQ(digits.validator.last_probes, 0);

  const experiment_config objects = standard_config(dataset_kind::objects);
  // The paper validates only the last six layers of DenseNet.
  EXPECT_EQ(objects.validator.last_probes, 6);
}

TEST(Config, SummaryMentionsPaperDataset) {
  const experiment_config cfg = standard_config(dataset_kind::street);
  EXPECT_NE(cfg.summary().find("SVHN"), std::string::npos);
}

TEST(Config, ModelNamesStable) {
  EXPECT_NE(std::string{model_name(dataset_kind::street)}.find("Table II"),
            std::string::npos);
  EXPECT_NE(std::string{model_name(dataset_kind::objects)}.find("DenseNet"),
            std::string::npos);
}

TEST(Config, TrainUsesPaperOptimizer) {
  const experiment_config cfg = standard_config(dataset_kind::digits);
  EXPECT_EQ(cfg.train.optimizer, train_config::opt_kind::adadelta);
  EXPECT_FLOAT_EQ(cfg.train.lr, 1.0f);
  EXPECT_FLOAT_EQ(cfg.train.lr_decay, 0.95f);
}

TEST(CornerSuite, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/suite_rt.dvsnap";
  corner_suite suite;
  // Minimal synthetic suite.
  suite.seeds.images = tensor{{2, 1, 4, 4}};
  suite.seeds.labels = {0, 1};
  suite.seeds.num_classes = 10;
  suite.seeds.name = "seeds";
  corner_entry entry;
  entry.kind = transform_kind::rotation;
  entry.usable = true;
  entry.chain = {{transform_kind::rotation, 42.0f, 0.0f}};
  entry.success_rate = 0.625;
  entry.mean_confidence = 0.88;
  entry.range_description = "1 through 70";
  entry.cases = suite.seeds;
  entry.misclassified = {1, 0};
  suite.entries.push_back(entry);
  // An unusable combined entry with no chain and no cases.
  corner_entry empty;
  empty.combined = true;
  empty.range_description = "components from single-transform search";
  suite.entries.push_back(empty);

  suite.save(path);
  const corner_suite loaded = corner_suite::load(path);
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_TRUE(loaded.entries[1].combined);
  EXPECT_FALSE(loaded.entries[1].usable);
  EXPECT_TRUE(loaded.entries[1].chain.empty());
  EXPECT_EQ(loaded.entries[1].cases.size(), 0);
  EXPECT_EQ(loaded.entries[1].range_description, empty.range_description);
  EXPECT_EQ(loaded.entries[0].cases.images.shape(),
            suite.seeds.images.shape());
  EXPECT_EQ(loaded.entries[0].range_description, "1 through 70");
  EXPECT_EQ(loaded.seeds.name, "seeds");
  EXPECT_EQ(loaded.entries[0].kind, transform_kind::rotation);
  EXPECT_TRUE(loaded.entries[0].usable);
  EXPECT_DOUBLE_EQ(loaded.entries[0].success_rate, 0.625);
  EXPECT_FLOAT_EQ(loaded.entries[0].chain[0].p1, 42.0f);
  EXPECT_EQ(loaded.entries[0].misclassified, (std::vector<unsigned char>{1, 0}));
  EXPECT_EQ(loaded.seeds.labels, suite.seeds.labels);
  std::remove(path.c_str());
}

TEST(CornerSuite, PooledSccsCollectsMisclassified) {
  corner_suite suite;
  suite.seeds.name = "seeds";
  corner_entry a;
  a.usable = true;
  a.cases.images = tensor{{3, 1, 2, 2}};
  a.cases.images.fill(0.25f);
  a.cases.labels = {0, 1, 2};
  a.cases.num_classes = 10;
  a.misclassified = {1, 0, 1};
  corner_entry b = a;
  b.usable = false;  // excluded entirely
  corner_entry c = a;
  c.misclassified = {0, 1, 0};
  suite.entries = {a, b, c};
  const dataset pooled = suite.pooled_sccs();
  EXPECT_EQ(pooled.size(), 3);  // 2 from a + 1 from c
  EXPECT_EQ(pooled.labels[0], 0);
  EXPECT_EQ(pooled.labels[1], 2);
  EXPECT_EQ(pooled.labels[2], 1);
  EXPECT_EQ(suite.usable_count(), 2);
}

TEST(CornerSuite, SccFccPartitionEntry) {
  corner_entry e;
  e.cases.images = tensor{{4, 1, 2, 2}};
  for (std::int64_t i = 0; i < 4; ++i) {
    e.cases.images.data()[i * 4] = static_cast<float>(i);  // tag each sample
  }
  e.cases.labels = {0, 1, 2, 3};
  e.cases.num_classes = 10;
  e.misclassified = {1, 0, 1, 0};
  const dataset sccs = e.sccs();
  const dataset fccs = e.fccs();
  EXPECT_EQ(sccs.size(), 2);
  EXPECT_EQ(fccs.size(), 2);
  EXPECT_EQ(sccs.labels, (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(fccs.labels, (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(sccs.size() + fccs.size(), e.cases.size());
  EXPECT_FLOAT_EQ(sccs.images.sample(1)[0], 2.0f);
}

TEST(CornerSuite, DisplayName) {
  corner_entry e;
  e.kind = transform_kind::shear;
  EXPECT_EQ(e.display_name(), "shear");
  e.combined = true;
  EXPECT_EQ(e.display_name(), "combined");
}

TEST(Artifacts, DirectoryHonorsEnvironment) {
  ::setenv("DV_ARTIFACT_DIR", (::testing::TempDir() + "/dv_art").c_str(), 1);
  const std::string dir = artifact_directory();
  EXPECT_NE(dir.find("dv_art"), std::string::npos);
  ::unsetenv("DV_ARTIFACT_DIR");
}

TEST(Artifacts, FastModeShrinksConfig) {
  ::setenv("DV_FAST", "1", 1);
  const experiment_config fast = standard_config(dataset_kind::digits);
  ::unsetenv("DV_FAST");
  const experiment_config full = standard_config(dataset_kind::digits);
  EXPECT_LT(fast.data.train_size, full.data.train_size);
  EXPECT_LT(fast.seed_images, full.seed_images);
}

TEST(Artifacts, ScaleFactorParsesEnvironment) {
  ::setenv("DV_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(scale_factor(), 0.5);
  ::setenv("DV_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(scale_factor(), 1.0);
  ::unsetenv("DV_SCALE");
  EXPECT_DOUBLE_EQ(scale_factor(), 1.0);
}

}  // namespace
}  // namespace dv
