#include "nn/dense_block.h"

#include <gtest/gtest.h>

#include "grad_check.h"

namespace dv {
namespace {

using dv::testing::check_input_gradient;
using dv::testing::check_param_gradients;

TEST(ConcatChannels, LayoutAndValues) {
  tensor a = tensor::from_data({1, 1, 2, 2}, {1, 2, 3, 4});
  tensor b = tensor::from_data({1, 2, 2, 2}, {5, 6, 7, 8, 9, 10, 11, 12});
  const tensor c = concat_channels(a, b);
  EXPECT_EQ(c.shape(), (std::vector<std::int64_t>{1, 3, 2, 2}));
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[4], 5.0f);
  EXPECT_EQ(c[11], 12.0f);
}

TEST(ConcatChannels, BatchedInterleaving) {
  // Two samples: concat must interleave per sample, not per tensor.
  tensor a = tensor::from_data({2, 1, 1, 1}, {1, 2});
  tensor b = tensor::from_data({2, 1, 1, 1}, {10, 20});
  const tensor c = concat_channels(a, b);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 10.0f);
  EXPECT_EQ(c[2], 2.0f);
  EXPECT_EQ(c[3], 20.0f);
}

TEST(ConcatChannels, ShapeMismatchThrows) {
  tensor a{{1, 1, 2, 2}};
  tensor b{{1, 1, 3, 3}};
  EXPECT_THROW(concat_channels(a, b), std::invalid_argument);
}

TEST(SplitChannels, InverseOfConcat) {
  rng gen{1};
  tensor a = tensor::randn({3, 2, 4, 4}, gen);
  tensor b = tensor::randn({3, 5, 4, 4}, gen);
  const tensor c = concat_channels(a, b);
  tensor a2, b2;
  split_channels(c, 2, a2, b2);
  ASSERT_TRUE(a2.same_shape(a));
  ASSERT_TRUE(b2.same_shape(b));
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a2[i], a[i]);
  for (std::int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(b2[i], b[i]);
}

TEST(SplitChannels, BadSplitPointThrows) {
  tensor x{{1, 3, 2, 2}};
  tensor a, b;
  EXPECT_THROW(split_channels(x, 0, a, b), std::invalid_argument);
  EXPECT_THROW(split_channels(x, 3, a, b), std::invalid_argument);
}

TEST(DenseBlock, OutputChannelsGrowByUnits) {
  rng gen{2};
  dense_block block{4, 3, 5, gen};
  EXPECT_EQ(block.out_channels(), 4 + 3 * 5);
  tensor x = tensor::randn({2, 4, 6, 6}, gen);
  const tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 19, 6, 6}));
}

TEST(DenseBlock, InputPassesThroughAsPrefix) {
  rng gen{3};
  dense_block block{2, 2, 1, gen};
  tensor x = tensor::randn({1, 2, 3, 3}, gen);
  const tensor y = block.forward(x, true);
  // First two channels of the output are exactly the input (identity path).
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(DenseBlock, GradCheck) {
  rng gen{4};
  dense_block block{2, 2, 2, gen};
  tensor x = tensor::randn({2, 2, 4, 4}, gen);
  tensor w = tensor::randn({2, 6, 4, 4}, gen);
  check_input_gradient(block, x, w, true, 1e-3, 4e-2);
  check_param_gradients(block, x, w, true, 1e-3, 4e-2);
}

TEST(DenseBlock, UnitProbes) {
  rng gen{5};
  dense_block block{2, 3, 4, gen};
  block.set_unit_probes(2);  // last two units
  EXPECT_EQ(block.probe_count(), 2);
  tensor x = tensor::randn({1, 2, 4, 4}, gen);
  std::vector<tensor> probes;
  (void)block.infer(x, &probes);
  ASSERT_EQ(probes.size(), 2u);
  // Each probe is the new feature maps of one unit: growth channels.
  EXPECT_EQ(probes[0].extent(1), 3);
  EXPECT_EQ(probes[1].extent(1), 3);
}

TEST(DenseBlock, AllUnitProbes) {
  rng gen{6};
  dense_block block{2, 2, 3, gen};
  block.set_unit_probes(-1);
  EXPECT_EQ(block.probe_count(), 3);
}

TEST(DenseBlock, ParamsCoverAllUnits) {
  rng gen{7};
  dense_block block{2, 2, 3, gen};
  // Each unit: bn gamma+beta and conv weight = 3 params.
  EXPECT_EQ(block.params().size(), 9u);
  EXPECT_EQ(block.state().size(), 6u);  // 2 running stats per unit
}

TEST(Transition, HalvesSpatialAndSetsChannels) {
  rng gen{8};
  transition t{8, 4, gen};
  tensor x = tensor::randn({2, 8, 6, 6}, gen);
  const tensor y = t.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 4, 3, 3}));
}

TEST(Transition, GradCheck) {
  rng gen{9};
  transition t{4, 2, gen};
  tensor x = tensor::randn({2, 4, 4, 4}, gen);
  tensor w = tensor::randn({2, 2, 2, 2}, gen);
  check_input_gradient(t, x, w, true, 1e-3, 4e-2);
  check_param_gradients(t, x, w, true, 1e-3, 4e-2);
}

TEST(DenseBlock, RejectsWrongChannels) {
  rng gen{10};
  dense_block block{4, 2, 2, gen};
  tensor x = tensor::randn({1, 3, 4, 4}, gen);
  EXPECT_THROW(block.forward(x, true), std::invalid_argument);
}

}  // namespace
}  // namespace dv
