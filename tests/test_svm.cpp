#include "svm/one_class_svm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "util/flat_snapshot.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace dv {
namespace {

/// 2-D Gaussian blob around (cx, cy).
tensor make_blob(std::int64_t n, double cx, double cy, double stddev,
                 std::uint64_t seed) {
  rng gen{seed};
  tensor out{{n, 2}};
  for (std::int64_t i = 0; i < n; ++i) {
    out.at2(i, 0) = static_cast<float>(gen.normal(cx, stddev));
    out.at2(i, 1) = static_cast<float>(gen.normal(cy, stddev));
  }
  return out;
}

TEST(Kernel, RbfProperties) {
  const float a[2] = {0.0f, 0.0f};
  const float b[2] = {1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(rbf_kernel(a, a, 2, 1.0), 1.0);
  EXPECT_NEAR(rbf_kernel(a, b, 2, 1.0), std::exp(-1.0), 1e-9);
  EXPECT_NEAR(rbf_kernel(a, b, 2, 2.0), std::exp(-2.0), 1e-9);
}

TEST(Kernel, LinearIsDot) {
  const float a[3] = {1.0f, 2.0f, 3.0f};
  const float b[3] = {4.0f, 5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(kernel_value(kernel_kind::linear, a, b, 3, 0.0), 32.0);
}

TEST(Kernel, MatrixIsSymmetricWithUnitDiagonal) {
  const tensor samples = make_blob(10, 0, 0, 1.0, 1);
  const tensor k = kernel_matrix(kernel_kind::rbf, samples, 0.5);
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(k.at2(i, i), 1.0f);
    for (std::int64_t j = 0; j < 10; ++j) {
      EXPECT_FLOAT_EQ(k.at2(i, j), k.at2(j, i));
    }
  }
}

TEST(Kernel, GammaHeuristicScalesWithVariance) {
  const tensor tight = make_blob(100, 0, 0, 0.1, 2);
  const tensor wide = make_blob(100, 0, 0, 10.0, 3);
  EXPECT_GT(gamma_scale_heuristic(tight), gamma_scale_heuristic(wide));
}

TEST(OneClassSvm, FitRejectsBadInputs) {
  one_class_svm svm;
  one_class_svm_config cfg;
  tensor one{{1, 2}};
  EXPECT_THROW(svm.fit(one, cfg), std::invalid_argument);
  const tensor blob = make_blob(10, 0, 0, 1.0, 4);
  cfg.nu = 0.0;
  EXPECT_THROW(svm.fit(blob, cfg), std::invalid_argument);
  cfg.nu = 1.5;
  EXPECT_THROW(svm.fit(blob, cfg), std::invalid_argument);
}

TEST(OneClassSvm, DecisionBeforeFitThrows) {
  one_class_svm svm;
  const float x[2] = {0, 0};
  EXPECT_THROW(svm.decision({x, 2}), std::logic_error);
}

TEST(OneClassSvm, InliersPositiveOutliersNegative) {
  const tensor blob = make_blob(200, 0, 0, 1.0, 5);
  one_class_svm svm;
  one_class_svm_config cfg;
  cfg.nu = 0.1;
  svm.fit(blob, cfg);
  EXPECT_TRUE(svm.fitted());

  const float center[2] = {0.0f, 0.0f};
  EXPECT_GT(svm.decision({center, 2}), 0.0);
  const float far_away[2] = {25.0f, -30.0f};
  EXPECT_LT(svm.decision({far_away, 2}), 0.0);
}

TEST(OneClassSvm, OutlierFractionRespectsNuBound) {
  const tensor blob = make_blob(400, 0, 0, 1.0, 6);
  one_class_svm svm;
  one_class_svm_config cfg;
  cfg.nu = 0.2;
  svm.fit(blob, cfg);
  std::int64_t negatives = 0;
  for (std::int64_t i = 0; i < 400; ++i) {
    const float x[2] = {blob.at2(i, 0), blob.at2(i, 1)};
    negatives += svm.decision({x, 2}) < 0.0 ? 1 : 0;
  }
  // nu upper-bounds the training outlier fraction (within solver slack).
  EXPECT_LT(static_cast<double>(negatives) / 400.0, 0.2 + 0.08);
  // And with an RBF kernel the boundary is tight enough to exclude some.
  EXPECT_GT(negatives, 0);
}

TEST(OneClassSvm, DecisionDecreasesOutsideSupport) {
  // Support vectors of a one-class SVM sit on the boundary of the data, so
  // the decision value is roughly flat inside the blob; monotone decay is
  // only guaranteed once the query leaves the support region.
  const tensor blob = make_blob(200, 0, 0, 1.0, 7);
  one_class_svm svm;
  one_class_svm_config cfg;
  cfg.nu = 0.1;
  svm.fit(blob, cfg);
  const auto at = [&](double r) {
    const float x[2] = {static_cast<float>(r), 0.0f};
    return svm.decision({x, 2});
  };
  double prev = at(3.0);
  for (double r = 4.0; r <= 10.0; r += 1.0) {
    const double d = at(r);
    EXPECT_LT(d, prev) << "radius " << r;
    prev = d;
  }
  // And interior values clearly dominate far-outside values.
  EXPECT_GT(at(0.0), at(6.0));
  EXPECT_GT(at(1.0), at(6.0));
}

TEST(OneClassSvm, SupportVectorsAreSubset) {
  const tensor blob = make_blob(300, 0, 0, 1.0, 8);
  one_class_svm svm;
  one_class_svm_config cfg;
  cfg.nu = 0.05;
  svm.fit(blob, cfg);
  EXPECT_GT(svm.support_count(), 0);
  EXPECT_LT(svm.support_count(), 300);
  // At least nu * l support vectors (Schölkopf's lower bound).
  EXPECT_GE(svm.support_count(),
            static_cast<std::int64_t>(0.05 * 300) - 1);
}

TEST(OneClassSvm, ExplicitGammaIsHonored) {
  const tensor blob = make_blob(100, 0, 0, 1.0, 9);
  one_class_svm svm;
  one_class_svm_config cfg;
  cfg.gamma = 3.5;
  svm.fit(blob, cfg);
  EXPECT_DOUBLE_EQ(svm.gamma(), 3.5);
}

TEST(OneClassSvm, LinearKernelSeparatesShiftedBlob) {
  const tensor blob = make_blob(150, 5, 5, 0.5, 10);
  one_class_svm svm;
  one_class_svm_config cfg;
  cfg.kernel = kernel_kind::linear;
  cfg.nu = 0.1;
  svm.fit(blob, cfg);
  const float inlier[2] = {5.0f, 5.0f};
  const float outlier[2] = {-5.0f, -5.0f};
  EXPECT_GT(svm.decision({inlier, 2}), svm.decision({outlier, 2}));
}

TEST(OneClassSvm, DimensionMismatchThrows) {
  const tensor blob = make_blob(50, 0, 0, 1.0, 11);
  one_class_svm svm;
  svm.fit(blob, {});
  const float x[3] = {0, 0, 0};
  EXPECT_THROW(svm.decision({x, 3}), std::invalid_argument);
}

TEST(OneClassSvm, SaveLoadRoundTrip) {
  const tensor blob = make_blob(120, 1, -1, 1.0, 12);
  one_class_svm svm;
  svm.fit(blob, {});
  snapshot_writer w;
  svm.save_snapshot(w, "svm/");
  const auto view = snapshot_view::from_image(w.serialize());
  const one_class_svm loaded = one_class_svm::load_snapshot(*view, "svm/");
  EXPECT_EQ(loaded.support_count(), svm.support_count());
  EXPECT_DOUBLE_EQ(loaded.rho(), svm.rho());
  rng gen{13};
  for (int i = 0; i < 20; ++i) {
    const float x[2] = {static_cast<float>(gen.uniform(-5, 5)),
                        static_cast<float>(gen.uniform(-5, 5))};
    EXPECT_NEAR(loaded.decision({x, 2}), svm.decision({x, 2}), 1e-9);
  }
}

class SvmNuSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvmNuSweep, SupportFractionAtLeastNu) {
  // Property from Schölkopf et al.: nu lower-bounds the SV fraction.
  const double nu = GetParam();
  const tensor blob = make_blob(200, 0, 0, 1.0, 14);
  one_class_svm svm;
  one_class_svm_config cfg;
  cfg.nu = nu;
  svm.fit(blob, cfg);
  const double sv_fraction =
      static_cast<double>(svm.support_count()) / 200.0;
  EXPECT_GE(sv_fraction, nu - 0.02);
}

INSTANTIATE_TEST_SUITE_P(Nus, SvmNuSweep,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.8));

}  // namespace
}  // namespace dv
