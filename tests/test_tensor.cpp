#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "util/flat_snapshot.h"
#include "util/serialize.h"

namespace dv {
namespace {

TEST(Tensor, ConstructionZeroFills) {
  tensor t{{2, 3}};
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(), 2);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, InvalidShapeThrows) {
  EXPECT_THROW(tensor({2, 0}), std::invalid_argument);
  EXPECT_THROW(tensor({-1, 3}), std::invalid_argument);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(tensor::from_data({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(tensor::from_data({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, FullAndFill) {
  tensor t = tensor::full({3}, 2.5f);
  EXPECT_EQ(t[0], 2.5f);
  t.fill(-1.0f);
  EXPECT_EQ(t[2], -1.0f);
}

TEST(Tensor, ReshapeInfersExtent) {
  tensor t{{4, 6}};
  t.reshape({2, -1});
  EXPECT_EQ(t.extent(0), 2);
  EXPECT_EQ(t.extent(1), 12);
}

TEST(Tensor, ReshapeErrors) {
  tensor t{{4, 6}};
  EXPECT_THROW(t.reshape({5, 5}), std::invalid_argument);
  EXPECT_THROW(t.reshape({-1, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshape({7, -1}), std::invalid_argument);
}

TEST(Tensor, ReshapedLeavesSourceIntact) {
  tensor t{{2, 6}};
  const tensor r = t.reshaped({3, 4});
  EXPECT_EQ(t.extent(0), 2);
  EXPECT_EQ(r.extent(0), 3);
}

TEST(Tensor, IndexAccessors) {
  tensor t{{2, 3, 4, 5}};
  t.at4(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[t.numel() - 1], 9.0f);
  tensor m{{3, 4}};
  m.at2(2, 3) = 7.0f;
  EXPECT_EQ(m[11], 7.0f);
  tensor c{{2, 3, 4}};
  c.at3(1, 2, 3) = 5.0f;
  EXPECT_EQ(c[23], 5.0f);
}

TEST(Tensor, SampleRoundTrip) {
  rng gen{3};
  tensor batch = tensor::randn({4, 2, 3, 3}, gen);
  const tensor s = batch.sample(2);
  EXPECT_EQ(s.shape(), (std::vector<std::int64_t>{2, 3, 3}));
  tensor other{{4, 2, 3, 3}};
  other.set_sample(2, s);
  for (std::int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_EQ(other.sample(2)[i], s[i]);
  }
  EXPECT_THROW(batch.sample(4), std::out_of_range);
  EXPECT_THROW(batch.sample(-1), std::out_of_range);
}

TEST(Tensor, SliceRows) {
  tensor t = tensor::from_data({4, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  const tensor s = t.slice_rows(1, 3);
  EXPECT_EQ(s.extent(0), 2);
  EXPECT_EQ(s[0], 2.0f);
  EXPECT_EQ(s[3], 5.0f);
  EXPECT_THROW(t.slice_rows(3, 3), std::out_of_range);
  EXPECT_THROW(t.slice_rows(0, 5), std::out_of_range);
}

TEST(Tensor, ElementwiseArithmetic) {
  tensor a = tensor::from_data({3}, {1, 2, 3});
  tensor b = tensor::from_data({3}, {4, 5, 6});
  a += b;
  EXPECT_EQ(a[0], 5.0f);
  a -= b;
  EXPECT_EQ(a[2], 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a[1], 4.0f);
  a.add_scaled(b, 0.5f);
  EXPECT_EQ(a[0], 4.0f);
  a.mul_elem(b);
  EXPECT_EQ(a[0], 16.0f);
}

TEST(Tensor, Clamp) {
  tensor t = tensor::from_data({4}, {-1.0f, 0.2f, 0.8f, 2.0f});
  t.clamp(0.0f, 1.0f);
  EXPECT_EQ(t[0], 0.0f);
  EXPECT_EQ(t[1], 0.2f);
  EXPECT_EQ(t[3], 1.0f);
}

TEST(Tensor, Reductions) {
  tensor t = tensor::from_data({4}, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(t.sum(), -2.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
  EXPECT_FLOAT_EQ(t.min(), -4.0f);
  EXPECT_FLOAT_EQ(t.mean(), -0.5f);
  EXPECT_EQ(t.argmax(), 2);
  EXPECT_FLOAT_EQ(t.norm1(), 10.0f);
  EXPECT_FLOAT_EQ(t.norm2(), std::sqrt(30.0f));
}

TEST(Tensor, EmptyReductionsThrow) {
  tensor t;
  EXPECT_THROW(t.max(), std::logic_error);
  EXPECT_THROW(t.mean(), std::logic_error);
  EXPECT_THROW(t.argmax(), std::logic_error);
}

TEST(Tensor, OutOfPlaceOperators) {
  const tensor a = tensor::from_data({2}, {1, 2});
  const tensor b = tensor::from_data({2}, {3, 4});
  const tensor c = a + b;
  EXPECT_EQ(c[0], 4.0f);
  const tensor d = a - b;
  EXPECT_EQ(d[1], -2.0f);
  const tensor e = a * 3.0f;
  EXPECT_EQ(e[0], 3.0f);
}

TEST(Tensor, RandnStatistics) {
  rng gen{5};
  const tensor t = tensor::randn({10000}, gen, 2.0f);
  EXPECT_NEAR(t.mean(), 0.0f, 0.1f);
  double var = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) var += t[i] * t[i];
  EXPECT_NEAR(var / static_cast<double>(t.numel()), 4.0, 0.3);
}

TEST(Tensor, UniformRange) {
  rng gen{5};
  const tensor t = tensor::uniform({1000}, gen, -2.0f, 3.0f);
  EXPECT_GE(t.min(), -2.0f);
  EXPECT_LT(t.max(), 3.0f);
}

TEST(Tensor, SnapshotRoundTrip) {
  rng gen{9};
  const tensor t = tensor::randn({3, 4, 5}, gen);
  snapshot_writer w;
  t.save_snapshot(w, "t/");
  tensor{}.save_snapshot(w, "empty/");
  const auto view = snapshot_view::from_image(w.serialize());
  const tensor u = tensor::load_snapshot(*view, "t/");
  EXPECT_EQ(u.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(u[i], t[i]);
  EXPECT_TRUE(tensor::load_snapshot(*view, "empty/").empty());
}

TEST(Tensor, SnapshotShapeDataMismatchThrows) {
  const std::vector<float> data(6, 1.0f);
  const auto load = [&](std::vector<std::int64_t> shape) {
    snapshot_writer w;
    w.add_i64("t/shape", shape);
    w.add_f32("t/data", data);
    return tensor::load_snapshot(*snapshot_view::from_image(w.serialize()),
                                 "t/");
  };
  EXPECT_EQ(load({2, 3}).shape(), (std::vector<std::int64_t>{2, 3}));
  EXPECT_THROW((void)load({2, 4}), serialize_error);
  EXPECT_THROW((void)load({0, 6}), serialize_error);
  EXPECT_THROW((void)load({-2, -3}), serialize_error);
  EXPECT_THROW((void)load({}), serialize_error);
  // Extents whose product overflows must not wrap around to a match.
  EXPECT_THROW((void)load({6, std::int64_t{1} << 62, 4}), serialize_error);
}

TEST(Tensor, ShapeString) {
  tensor t{{2, 3, 4}};
  EXPECT_EQ(t.shape_string(), "[2, 3, 4]");
}

}  // namespace
}  // namespace dv
