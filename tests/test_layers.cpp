#include "nn/layers.h"

#include <gtest/gtest.h>

#include "grad_check.h"

namespace dv {
namespace {

using dv::testing::check_input_gradient;
using dv::testing::check_param_gradients;

TEST(Relu, ForwardClampsNegatives) {
  relu l;
  tensor x = tensor::from_data({1, 4}, {-1.0f, 0.0f, 2.0f, -0.5f});
  const tensor y = l.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
}

TEST(Relu, BackwardMasksGradient) {
  relu l;
  tensor x = tensor::from_data({1, 3}, {-1.0f, 1.0f, 3.0f});
  (void)l.forward(x, true);
  const tensor g = l.backward(tensor::from_data({1, 3}, {5.0f, 5.0f, 5.0f}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 5.0f);
  EXPECT_EQ(g[2], 5.0f);
}

TEST(Relu, GradCheck) {
  relu l;
  rng gen{1};
  tensor x = tensor::randn({2, 3, 4, 4}, gen);
  tensor w = tensor::randn({2, 3, 4, 4}, gen);
  check_input_gradient(l, x, w);
}

TEST(Dropout, InferenceIsIdentity) {
  dropout l{0.5, 7};
  rng gen{2};
  tensor x = tensor::randn({4, 10}, gen);
  const tensor y = l.forward(x, false);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainKeepsMeanAndZeroesFraction) {
  dropout l{0.3, 7};
  tensor x = tensor::full({1, 20000}, 1.0f);
  const tensor y = l.forward(x, true);
  std::int64_t zeros = 0;
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) ++zeros;
    sum += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.3, 0.02);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.03);  // inverted scaling preserves mean
}

TEST(Dropout, BackwardUsesSameMask) {
  dropout l{0.5, 7};
  tensor x = tensor::full({1, 100}, 1.0f);
  const tensor y = l.forward(x, true);
  const tensor g = l.backward(tensor::full({1, 100}, 1.0f));
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_EQ(g[i], y[i]);  // identical mask and scale
  }
}

TEST(Dropout, InvalidProbabilityThrows) {
  EXPECT_THROW(dropout(1.0, 1), std::invalid_argument);
  EXPECT_THROW(dropout(-0.1, 1), std::invalid_argument);
}

TEST(Flatten, RoundTrip) {
  flatten l;
  rng gen{3};
  tensor x = tensor::randn({2, 3, 4, 5}, gen);
  const tensor y = l.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 60}));
  const tensor g = l.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Conv2d, ForwardShape) {
  rng gen{4};
  conv2d l{3, 8, 3, 1, 1, gen};
  tensor x = tensor::randn({2, 3, 8, 8}, gen);
  const tensor y = l.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 8, 8, 8}));
}

TEST(Conv2d, StrideShrinksOutput) {
  rng gen{4};
  conv2d l{1, 2, 3, 2, 1, gen};
  tensor x = tensor::randn({1, 1, 9, 9}, gen);
  const tensor y = l.forward(x, true);
  EXPECT_EQ(y.extent(2), 5);
}

TEST(Conv2d, KnownValueIdentityKernel) {
  rng gen{4};
  conv2d l{1, 1, 1, 1, 0, gen};
  // Overwrite weights: 1x1 kernel of value 2, bias 1.
  auto params = l.params();
  (*params[0].value)[0] = 2.0f;
  (*params[1].value)[0] = 1.0f;
  tensor x = tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  const tensor y = l.forward(x, true);
  EXPECT_EQ(y[0], 3.0f);
  EXPECT_EQ(y[3], 9.0f);
}

TEST(Conv2d, GradCheckInputAndParams) {
  rng gen{5};
  conv2d l{2, 3, 3, 1, 1, gen};
  tensor x = tensor::randn({2, 2, 5, 5}, gen);
  tensor w = tensor::randn({2, 3, 5, 5}, gen);
  check_input_gradient(l, x, w);
  check_param_gradients(l, x, w);
}

TEST(Conv2d, GradCheckStridedNoBias) {
  rng gen{6};
  conv2d l{1, 2, 3, 2, 0, gen, /*bias=*/false};
  tensor x = tensor::randn({1, 1, 7, 7}, gen);
  tensor w = tensor::randn({1, 2, 3, 3}, gen);
  check_input_gradient(l, x, w);
  check_param_gradients(l, x, w);
  EXPECT_EQ(l.params().size(), 1u);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  rng gen{7};
  conv2d l{3, 4, 3, 1, 1, gen};
  tensor x = tensor::randn({1, 2, 8, 8}, gen);
  EXPECT_THROW(l.forward(x, true), std::invalid_argument);
}

TEST(Dense, ForwardMatchesManual) {
  rng gen{8};
  dense l{2, 2, gen};
  auto params = l.params();
  *params[0].value = tensor::from_data({2, 2}, {1, 2, 3, 4});
  *params[1].value = tensor::from_data({2}, {10, 20});
  tensor x = tensor::from_data({1, 2}, {1, 1});
  const tensor y = l.forward(x, true);
  EXPECT_EQ(y[0], 13.0f);  // 1*1 + 2*1 + 10
  EXPECT_EQ(y[1], 27.0f);  // 3*1 + 4*1 + 20
}

TEST(Dense, GradCheck) {
  rng gen{9};
  dense l{6, 4, gen};
  tensor x = tensor::randn({3, 6}, gen);
  tensor w = tensor::randn({3, 4}, gen);
  check_input_gradient(l, x, w);
  check_param_gradients(l, x, w);
}

TEST(MaxPool, ForwardSelectsMaxima) {
  max_pool2d l{2};
  tensor x = tensor::from_data({1, 1, 2, 2}, {1, 4, 3, 2});
  const tensor y = l.forward(x, true);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 4.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  max_pool2d l{2};
  tensor x = tensor::from_data({1, 1, 2, 2}, {1, 4, 3, 2});
  (void)l.forward(x, true);
  const tensor g = l.backward(tensor::from_data({1, 1, 1, 1}, {7.0f}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 7.0f);
  EXPECT_EQ(g[2], 0.0f);
}

TEST(MaxPool, GradCheck) {
  max_pool2d l{2};
  rng gen{10};
  tensor x = tensor::randn({2, 3, 6, 6}, gen);
  tensor w = tensor::randn({2, 3, 3, 3}, gen);
  check_input_gradient(l, x, w, true, 1e-4, 3e-2);
}

TEST(GlobalAvgPool, ForwardAveragesPlanes) {
  global_avg_pool l;
  tensor x = tensor::from_data({1, 2, 1, 2}, {1, 3, 10, 20});
  const tensor y = l.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 15.0f);
}

TEST(GlobalAvgPool, GradCheck) {
  global_avg_pool l;
  rng gen{11};
  tensor x = tensor::randn({2, 4, 3, 3}, gen);
  tensor w = tensor::randn({2, 4}, gen);
  check_input_gradient(l, x, w);
}

TEST(AvgPool, ForwardAndGradCheck) {
  avg_pool2d l{2};
  tensor x = tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  const tensor y = l.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  rng gen{12};
  tensor xr = tensor::randn({2, 2, 4, 4}, gen);
  tensor w = tensor::randn({2, 2, 2, 2}, gen);
  check_input_gradient(l, xr, w);
}

TEST(BatchNorm, TrainingNormalizesBatch) {
  batch_norm l{3};
  rng gen{13};
  tensor x = tensor::randn({16, 3, 4, 4}, gen, 5.0f);
  const tensor y = l.forward(x, true);
  // Per-channel mean ~0, variance ~1 after normalization (gamma=1, beta=0).
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sum2 = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 16; ++n) {
      for (std::int64_t i = 0; i < 16; ++i) {
        const float v = y.at4(n, c, i / 4, i % 4);
        sum += v;
        sum2 += static_cast<double>(v) * v;
        ++count;
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sum2 / count, 1.0, 1e-3);
  }
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  batch_norm l{2};
  rng gen{14};
  // Train forward several times to accumulate running statistics.
  for (int i = 0; i < 50; ++i) {
    tensor x = tensor::randn({8, 2, 2, 2}, gen, 2.0f);
    (void)l.forward(x, true);
  }
  tensor x = tensor::full({1, 2, 2, 2}, 0.0f);
  const tensor y = l.forward(x, false);
  // Running mean ~0, var ~4 -> output ~0 for zero input.
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[i], 0.0f, 0.3f);
  }
}

TEST(BatchNorm, GradCheckSpatial) {
  batch_norm l{2};
  rng gen{15};
  tensor x = tensor::randn({4, 2, 3, 3}, gen);
  tensor w = tensor::randn({4, 2, 3, 3}, gen);
  check_input_gradient(l, x, w, true, 1e-3, 3e-2);
  check_param_gradients(l, x, w, true, 1e-3, 3e-2);
}

TEST(BatchNorm, GradCheckDense2d) {
  batch_norm l{5};
  rng gen{16};
  tensor x = tensor::randn({6, 5}, gen);
  tensor w = tensor::randn({6, 5}, gen);
  check_input_gradient(l, x, w, true, 1e-3, 3e-2);
}

TEST(BatchNorm, ChannelMismatchThrows) {
  batch_norm l{3};
  rng gen{17};
  tensor x = tensor::randn({1, 4, 2, 2}, gen);
  EXPECT_THROW(l.forward(x, true), std::invalid_argument);
}

TEST(ProbeFlag, RecordsOutputOnlyWhenProbed) {
  relu l;
  rng gen{18};
  tensor x = tensor::randn({1, 4}, gen);
  std::vector<tensor> probes;
  (void)l.infer(x, &probes);
  EXPECT_TRUE(probes.empty());
  l.set_probe(true);
  (void)l.infer(x, &probes);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0].numel(), 4);
  EXPECT_EQ(l.probe_count(), 1);
}

}  // namespace
}  // namespace dv
