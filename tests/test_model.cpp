#include "nn/model.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "nn/layers.h"
#include "pipeline/models.h"
#include "test_util.h"
#include "util/serialize.h"

namespace dv {
namespace {

std::unique_ptr<sequential> small_net(std::uint64_t seed) {
  rng gen{seed};
  auto m = std::make_unique<sequential>();
  m->add(std::make_unique<conv2d>(1, 2, 3, 1, 1, gen));
  m->add(std::make_unique<relu>(), /*probe=*/true);
  m->add(std::make_unique<flatten>());
  m->add(std::make_unique<dense>(2 * 4 * 4, 8, gen));
  m->add(std::make_unique<relu>(), /*probe=*/true);
  m->add(std::make_unique<dense>(8, 3, gen));
  return m;
}

TEST(Model, ForwardShapeAndProbes) {
  auto m = small_net(1);
  rng gen{2};
  tensor x = tensor::randn({5, 1, 4, 4}, gen);
  const inference pass = m->infer(x);
  EXPECT_EQ(pass.logits.shape(), (std::vector<std::int64_t>{5, 3}));
  EXPECT_EQ(m->probe_count(), 2);
  const auto& probes = pass.probes;
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(probes[0].shape(), (std::vector<std::int64_t>{5, 2, 4, 4}));
  EXPECT_EQ(probes[1].shape(), (std::vector<std::int64_t>{5, 8}));
}

TEST(Model, ProbabilitiesSumToOne) {
  auto m = small_net(3);
  rng gen{4};
  tensor x = tensor::randn({2, 1, 4, 4}, gen);
  const tensor p = m->probabilities(x);
  for (std::int64_t i = 0; i < 2; ++i) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < 3; ++j) sum += p.at2(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Model, PredictIsArgmaxOfLogits) {
  auto m = small_net(5);
  rng gen{6};
  tensor x = tensor::randn({3, 1, 4, 4}, gen);
  const tensor logits = m->forward(x);
  const auto preds = m->predict(x);
  for (std::int64_t i = 0; i < 3; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < 3; ++j) {
      if (logits.at2(i, j) > logits.at2(i, best)) best = j;
    }
    EXPECT_EQ(preds[static_cast<std::size_t>(i)], best);
  }
}

TEST(Model, ParamCountMatchesArchitecture) {
  auto m = small_net(7);
  // conv: 2*9+2, dense1: 32*8+8, dense2: 8*3+3
  EXPECT_EQ(m->param_count(), 2 * 9 + 2 + 32 * 8 + 8 + 8 * 3 + 3);
}

TEST(Model, ZeroGradClearsGradients) {
  auto m = small_net(8);
  rng gen{9};
  tensor x = tensor::randn({2, 1, 4, 4}, gen);
  (void)m->forward(x, true);
  tensor g{{2, 3}};
  g.fill(1.0f);
  (void)m->backward(g);
  bool any_nonzero = false;
  for (auto& p : m->params()) {
    for (std::int64_t i = 0; i < p.grad->numel(); ++i) {
      if ((*p.grad)[i] != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  m->zero_grad();
  for (auto& p : m->params()) {
    for (std::int64_t i = 0; i < p.grad->numel(); ++i) {
      EXPECT_EQ((*p.grad)[i], 0.0f);
    }
  }
}

TEST(Model, SaveLoadReproducesOutputs) {
  const std::string path = ::testing::TempDir() + "/model_rt.bin";
  auto m = small_net(10);
  rng gen{11};
  tensor x = tensor::randn({2, 1, 4, 4}, gen);
  const tensor before = m->forward(x);
  m->save_params(path);

  auto m2 = small_net(999);  // different init
  const tensor different = m2->forward(x);
  bool diverged = false;
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    if (std::abs(before[i] - different[i]) > 1e-6f) diverged = true;
  }
  EXPECT_TRUE(diverged);

  m2->load_params(path);
  const tensor after = m2->forward(x);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(after[i], before[i]);
  }
  std::remove(path.c_str());
}

TEST(Model, LoadRejectsMismatchedArchitecture) {
  const std::string path = ::testing::TempDir() + "/model_bad.bin";
  auto m = small_net(12);
  m->save_params(path);
  rng gen{13};
  sequential other;
  other.add(std::make_unique<dense>(4, 4, gen));
  EXPECT_THROW(other.load_params(path), serialize_error);
  std::remove(path.c_str());
}

TEST(Model, DescribeMentionsProbes) {
  auto m = small_net(14);
  const std::string desc = m->describe();
  EXPECT_NE(desc.find("conv2d"), std::string::npos);
  EXPECT_NE(desc.find("[probe"), std::string::npos);
}

TEST(ModelFactories, DigitsCnnHasSixProbes) {
  auto m = make_digits_cnn(1);
  EXPECT_EQ(m->probe_count(), 6);
  rng gen{2};
  tensor x = tensor::randn({1, 1, 28, 28}, gen);
  EXPECT_EQ(m->forward(x).extent(1), 10);
}

TEST(ModelFactories, StreetCnnHasSixProbes) {
  auto m = make_street_cnn(1);
  EXPECT_EQ(m->probe_count(), 6);
  rng gen{2};
  tensor x = tensor::randn({1, 3, 32, 32}, gen);
  EXPECT_EQ(m->forward(x).extent(1), 10);
}

TEST(ModelFactories, DensenetProbesAndForward) {
  auto m = make_objects_densenet(1);
  // 3 blocks x 3 unit probes + 2 transitions + GAP = 12 probes.
  EXPECT_EQ(m->probe_count(), 12);
  rng gen{2};
  tensor x = tensor::randn({2, 3, 32, 32}, gen);
  const tensor logits = m->forward(x, true);
  EXPECT_EQ(logits.shape(), (std::vector<std::int64_t>{2, 10}));
  EXPECT_EQ(m->infer(x).probes.size(), 12u);
}

TEST(ModelFactories, MakeModelDispatch) {
  EXPECT_EQ(make_model(dataset_kind::digits, 1)->probe_count(), 6);
  EXPECT_EQ(make_model(dataset_kind::street, 1)->probe_count(), 6);
  EXPECT_EQ(make_model(dataset_kind::objects, 1)->probe_count(), 12);
}

TEST(SharedTinyWorld, ModelLearnedSomething) {
  const auto& world = dv::testing::shared_tiny_world();
  EXPECT_GT(world.test_accuracy, 0.8);
}

}  // namespace
}  // namespace dv
