// Failure injection: corrupted or mismatched artifacts must fail loudly
// (serialize_error), never silently load garbage into a deployed detector.
// Every artifact is a flat snapshot, and each loader owes the same
// rejections: a snapshot of another kind, a truncated file, a flipped byte
// and a missing file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>

#include "core/deep_validator.h"
#include "pipeline/corner_suite.h"
#include "test_util.h"
#include "util/serialize.h"

namespace dv {
namespace {

using dv::testing::shared_tiny_world;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << content;
}

deep_validator make_fitted_validator() {
  const auto& world = shared_tiny_world();
  deep_validator dv;
  deep_validator_config cfg;
  cfg.max_train_per_class = 25;
  dv.fit(*world.model, world.train, cfg);
  return dv;
}

/// `load` accepts the untouched `valid` file and throws serialize_error on
/// `other_kind` (a valid snapshot of another artifact kind), on `valid`
/// truncated to half, on `valid` with one payload byte flipped, and on a
/// missing file.
void expect_rejections(const std::string& valid, const std::string& other_kind,
                       const std::function<void(const std::string&)>& load) {
  EXPECT_NO_THROW(load(valid));
  EXPECT_THROW(load(other_kind), serialize_error) << "wrong kind";
  const std::string content = read_file(valid);
  ASSERT_GT(content.size(), 128u);
  const std::string damaged = valid + ".damaged";
  write_file(damaged, content.substr(0, content.size() / 2));
  EXPECT_THROW(load(damaged), serialize_error) << "truncated";
  std::string flipped = content;
  flipped[content.size() / 2] = static_cast<char>(flipped[content.size() / 2] ^ 0x5a);
  write_file(damaged, flipped);
  EXPECT_THROW(load(damaged), serialize_error) << "flipped byte";
  EXPECT_THROW(load(valid + ".missing"), serialize_error) << "missing";
  std::remove(damaged.c_str());
}

/// Valid artifacts of each kind, written once per process.
struct artifact_files {
  std::string model = temp_path("fi_model.dvsnap");
  std::string bank = temp_path("fi_bank.dvsnap");
  std::string suite = temp_path("fi_suite.dvsnap");

  artifact_files() {
    shared_tiny_world().model->save_params(model);
    make_fitted_validator().save_snapshot(bank);
    corner_suite s;
    s.seeds.images = tensor{{4, 1, 4, 4}};
    s.seeds.labels = {0, 1, 2, 3};
    s.seeds.num_classes = 10;
    s.seeds.name = "seeds";
    s.save(suite);
  }
};

const artifact_files& files() {
  static const artifact_files f;
  return f;
}

TEST(FailureInjection, ModelParamsRejectBadFiles) {
  expect_rejections(files().model, files().bank, [](const std::string& p) {
    dv::testing::make_tiny_model(1)->load_params(p);
  });
}

TEST(FailureInjection, ValidatorRejectsBadFiles) {
  expect_rejections(files().bank, files().model, [](const std::string& p) {
    (void)deep_validator::load_snapshot(p);
  });
}

TEST(FailureInjection, CornerSuiteRejectsBadFiles) {
  expect_rejections(files().suite, files().model, [](const std::string& p) {
    (void)corner_suite::load(p);
  });
  EXPECT_THROW((void)corner_suite::load(files().bank), serialize_error);
}

TEST(FailureInjection, ValidatorSurvivesRoundTripAfterSave) {
  // Control case: an untouched artifact loads and scores identically.
  const auto& world = shared_tiny_world();
  const std::string path = temp_path("fi_ok.dvsnap");
  deep_validator dv = make_fitted_validator();
  dv.save_snapshot(path);
  const deep_validator loaded = deep_validator::load_snapshot(path);
  const tensor img = world.test.images.slice_rows(0, 3);
  const auto a = dv.evaluate(*world.model, img).joint;
  const auto b = loaded.evaluate(*world.model, img).joint;
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dv
