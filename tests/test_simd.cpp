// Tests of the SIMD dispatch layer (tensor/simd/simd.h): level selection
// and DV_SIMD startup semantics, plus the bitwise-identity contract — every
// supported dispatch level must produce byte-identical results for GEMM,
// conv2d forward/backward, the direct convolution (which must also equal
// im2col + GEMM), BN -> ReLU staging, ReLU, 2x2 max-pool and the GEMM row
// kernel (each also equal to an explicit reference, and gemm_nt's few-row
// path to the tiled rows), RBF kernel rows, decision_batch, the reduction
// primitives, and full deep_validator scores, across DV_THREADS {1, 8}
// (the newer kernel tests also at 4).
// Levels the host cannot run are skipped, never failed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/deep_validator.h"
#include "nn/layers.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"
#include "tensor/ops.h"
#include "tensor/simd/kernels_generic.h"
#include "tensor/simd/simd.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace dv {
namespace {

/// Restores the startup dispatch level and thread count when a test exits.
struct simd_state_guard {
  ~simd_state_guard() {
    reset_simd_level();
    set_thread_count(0);
  }
};

/// Every level this host can actually run, widest last. Always contains
/// at least scalar.
std::vector<simd_level> supported_levels() {
  std::vector<simd_level> out;
  for (const auto level :
       {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
    if (simd_level_supported(level)) out.push_back(level);
  }
  return out;
}

/// Runs `fn` under a forced (level, threads) pair and returns its result.
template <typename Fn>
auto at_level(simd_level level, int threads, Fn&& fn) {
  set_simd_level(level);
  set_thread_count(threads);
  return fn();
}

bool bitwise_equal(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// -- Dispatch mechanics ------------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupportedAndSetTracksActiveLevel) {
  simd_state_guard guard;
  EXPECT_TRUE(simd_level_supported(simd_level::scalar));
  for (const auto level : supported_levels()) {
    set_simd_level(level);
    EXPECT_EQ(active_simd_level(), level);
    EXPECT_EQ(simd_kernels().level, level);
  }
  EXPECT_EQ(simd_level_name(simd_level::scalar), "scalar");
  EXPECT_EQ(simd_level_name(simd_level::sse2), "sse2");
  EXPECT_EQ(simd_level_name(simd_level::avx2), "avx2");
}

TEST(SimdDispatch, ForcingAnUnsupportedLevelThrows) {
  simd_state_guard guard;
  for (const auto level : {simd_level::sse2, simd_level::avx2}) {
    if (simd_level_supported(level)) continue;
    EXPECT_THROW(set_simd_level(level), std::invalid_argument)
        << simd_level_name(level);
  }
}

TEST(SimdDispatch, StartupSelectionHonorsDvSimd) {
  simd_state_guard guard;
  reset_simd_level();
  const char* env = std::getenv("DV_SIMD");
  const std::string_view request = env == nullptr ? "auto" : env;
  simd_level want = simd_level::scalar;
  if (request == "scalar") {
    want = simd_level::scalar;
  } else if (request == "sse2") {
    want = simd_level::sse2;
  } else if (request == "avx2") {
    want = simd_level::avx2;
  } else {
    // auto (and unknown values, which warn and fall back to auto) select
    // the widest supported level.
    EXPECT_EQ(active_simd_level(), supported_levels().back());
    return;
  }
  if (!simd_level_supported(want)) {
    GTEST_SKIP() << "DV_SIMD=" << request << " is not supported on this host";
  }
  EXPECT_EQ(active_simd_level(), want);
}

// -- Reduction primitives ----------------------------------------------------------

TEST(SimdIdentity, ReductionsBitIdenticalAcrossLevels) {
  simd_state_guard guard;
  const auto levels = supported_levels();
  rng gen{41};
  // Odd lengths on both sides of the 8-lane block size, including pure-tail
  // sizes (n < 8) and multi-block sizes with and without remainders.
  const std::int64_t sizes[] = {1, 3, 7, 8, 9, 15, 16, 17, 64, 100, 1003};
  for (const auto n : sizes) {
    const tensor a = tensor::randn({n}, gen);
    const tensor b = tensor::randn({n}, gen);
    std::vector<double> da(static_cast<std::size_t>(n));
    std::vector<double> db(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      da[static_cast<std::size_t>(i)] = a[i];
      db[static_cast<std::size_t>(i)] = b[i];
    }
    struct result {
      double sum, sq, dot, dot64, l1;
      tensor shifted;
    };
    auto run = [&] {
      tensor shifted = a;
      add_scalar(shifted.data(), n, 1.25f);
      return result{array_sum(a.data(), n),
                    squared_distance(a.data(), b.data(), n),
                    dot(a.data(), b.data(), n),
                    dot_f64(da.data(), db.data(), n),
                    l1_distance(a.data(), b.data(), n), std::move(shifted)};
    };
    const auto base = at_level(simd_level::scalar, 1, run);
    for (const auto level : levels) {
      const auto got = at_level(level, 1, run);
      EXPECT_EQ(got.sum, base.sum) << simd_level_name(level) << " n=" << n;
      EXPECT_EQ(got.sq, base.sq) << simd_level_name(level) << " n=" << n;
      EXPECT_EQ(got.dot, base.dot) << simd_level_name(level) << " n=" << n;
      EXPECT_EQ(got.dot64, base.dot64) << simd_level_name(level) << " n=" << n;
      EXPECT_EQ(got.l1, base.l1) << simd_level_name(level) << " n=" << n;
      EXPECT_TRUE(bitwise_equal(got.shifted, base.shifted))
          << simd_level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdIdentity, SquaredDistanceRowMatchesPerRowCalls) {
  simd_state_guard guard;
  rng gen{43};
  const std::int64_t m = 37, d = 19;
  const tensor x = tensor::randn({d}, gen);
  const tensor rows = tensor::randn({m, d}, gen);
  for (const auto level : supported_levels()) {
    set_simd_level(level);
    std::vector<double> batched(static_cast<std::size_t>(m));
    squared_distance_row(x.data(), rows.data(), m, d, batched.data());
    for (std::int64_t j = 0; j < m; ++j) {
      const double single =
          squared_distance(x.data(), rows.data() + j * d, d);
      EXPECT_EQ(batched[static_cast<std::size_t>(j)], single)
          << simd_level_name(level) << " row " << j;
    }
  }
}

// -- GEMM and conv2d ---------------------------------------------------------------

TEST(SimdIdentity, GemmBitIdenticalAcrossLevelsAndThreads) {
  simd_state_guard guard;
  rng gen{47};
  const std::int64_t m = 130, n = 97, k = 301;
  const tensor a = tensor::randn({m, k}, gen);
  const tensor a_t = tensor::randn({k, m}, gen);
  const tensor b = tensor::randn({k, n}, gen);
  const tensor b_t = tensor::randn({n, k}, gen);
  auto run_all = [&] {
    std::vector<tensor> out;
    tensor c{{m, n}};
    gemm_nn(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    out.push_back(c);
    gemm_nt(m, n, k, 0.5f, a.data(), b_t.data(), 0.0f, c.data());
    out.push_back(c);
    gemm_tn(m, n, k, 1.0f, a_t.data(), b.data(), 1.0f, c.data());
    out.push_back(c);
    return out;
  };
  const auto base = at_level(simd_level::scalar, 1, run_all);
  for (const auto level : supported_levels()) {
    for (const int threads : {1, 8}) {
      const auto got = at_level(level, threads, run_all);
      ASSERT_EQ(got.size(), base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(got[i], base[i]))
            << "gemm variant " << i << " at " << simd_level_name(level)
            << " threads=" << threads;
      }
    }
  }
}

TEST(SimdIdentity, Conv2dForwardBackwardBitIdenticalAcrossLevelsAndThreads) {
  simd_state_guard guard;
  auto run = [&] {
    rng gen{53};
    conv2d conv{3, 8, 3, 1, 1, gen};
    // Stride-1 odd spatial size exercises the memcpy im2col fast path and
    // the col2im interior; the strided layer exercises the generic path.
    tensor x = tensor::randn({5, 3, 13, 13}, gen);
    tensor y = conv.forward(x, true);
    tensor g = tensor::randn(y.shape(), gen);
    tensor dx = conv.backward(g);
    conv2d strided{3, 4, 3, 2, 0, gen};
    tensor ys = strided.forward(x, true);
    tensor gs = tensor::randn(ys.shape(), gen);
    tensor dxs = strided.backward(gs);
    std::vector<tensor> out{y, dx, ys, dxs};
    for (auto& p : conv.params()) out.push_back(*p.grad);
    for (auto& p : strided.params()) out.push_back(*p.grad);
    return out;
  };
  const auto base = at_level(simd_level::scalar, 1, run);
  for (const auto level : supported_levels()) {
    for (const int threads : {1, 8}) {
      const auto got = at_level(level, threads, run);
      ASSERT_EQ(got.size(), base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(got[i], base[i]))
            << "conv tensor " << i << " at " << simd_level_name(level)
            << " threads=" << threads;
      }
    }
  }
}

// -- Direct convolution and BN -> ReLU staging -------------------------------------

/// Standard normal values with -0, denormals and exact zeros planted at
/// seeded positions, so the chains see every signed-zero and subnormal
/// case the ReLU'd activations can hold.
tensor planted_randn(const std::vector<std::int64_t>& shape, rng& gen) {
  tensor t = tensor::randn(shape, gen);
  const float planted[] = {-0.0f, 0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           std::numeric_limits<float>::min() / 4.0f};
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const int pick = gen.uniform_int(0, 9);
    if (pick < 5) t.data()[i] = planted[pick];
  }
  return t;
}

TEST(SimdIdentity, ConvDirectMatchesIm2colGemmAtEveryLevelAndThreadCount) {
  simd_state_guard guard;
  for (const auto level : supported_levels()) {
    for (const int threads : {1, 8}) {
      set_simd_level(level);
      set_thread_count(threads);
      rng gen{61};
      int cases = 0;
      for (const std::int64_t k : {1, 3}) {
        for (std::int64_t c = 1; c <= 40; ++c) {
          for (std::int64_t w = 1; w <= 33; ++w) {
            // Every channel count and every width, without the full
            // product; heights 1-3 and 1-13 output channels (whole
            // six-channel tiles plus each remainder). c >= 29 at k = 3
            // spans two k panels, and a 1x1 or 1x2 output of such a conv
            // takes the GEMM fallback.
            if ((c + w) % 4 != 0) continue;
            const std::int64_t h = 1 + (c + w) % 3;
            const std::int64_t out_c = 1 + c % 13;
            const conv_geometry g{c, h + k - 1, w + k - 1, k, 1, 0};
            const tensor image = planted_randn({c, g.in_h, g.in_w}, gen);
            const tensor weight = planted_randn({out_c, g.col_rows()}, gen);
            tensor col{{g.col_rows(), g.col_cols()}};
            im2col(image.data(), g, col.data());
            tensor want{{out_c, h, w}};
            gemm_nn(out_c, g.col_cols(), g.col_rows(), 1.0f, weight.data(),
                    col.data(), 0.0f, want.data());
            tensor got = tensor::full({out_c, h, w}, 7.0f);
            conv_direct(image.data(), g, weight.data(), out_c, got.data());
            EXPECT_TRUE(bitwise_equal(got, want))
                << "k=" << k << " c=" << c << " h=" << h << " w=" << w
                << " out_c=" << out_c << " at " << simd_level_name(level)
                << " threads=" << threads;
            ++cases;
          }
        }
      }
      EXPECT_EQ(cases, 660);
    }
  }
}

TEST(SimdIdentity, BnReluMatchesBatchNormThenRelu) {
  simd_state_guard guard;
  rng gen{67};
  for (std::int64_t n = 1; n <= 33; ++n) {
    tensor x = planted_randn({n}, gen);
    x.data()[0] = std::numeric_limits<float>::quiet_NaN();
    if (n > 1) x.data()[n - 1] = -std::numeric_limits<float>::infinity();
    const float mean = 0.3f, inv_std = 1.7f, gamma = -0.8f, beta = 0.05f;
    tensor want{{n}};
    for (std::int64_t i = 0; i < n; ++i) {
      const float h = (x[i] - mean) * inv_std;
      const float o = gamma * h + beta;
      want.data()[i] = o > 0.0f ? o : 0.0f;
    }
    for (const auto level : supported_levels()) {
      tensor got{{n}};
      at_level(level, 1, [&] {
        bn_relu(x.data(), n, mean, inv_std, gamma, beta, got.data());
        return 0;
      });
      EXPECT_TRUE(bitwise_equal(got, want))
          << "n=" << n << " at " << simd_level_name(level);
    }
  }
}

// -- ReLU, 2x2 max-pool and the GEMM row kernel ------------------------------------

constexpr float k_nan = std::numeric_limits<float>::quiet_NaN();
constexpr float k_inf = std::numeric_limits<float>::infinity();

/// planted_randn plus NaN, +Inf and -Inf at seeded positions.
tensor nonfinite_randn(const std::vector<std::int64_t>& shape, rng& gen) {
  tensor t = planted_randn(shape, gen);
  const float planted[] = {k_nan, k_inf, -k_inf};
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const int pick = gen.uniform_int(0, 19);
    if (pick < 3) t.data()[i] = planted[pick];
  }
  return t;
}

/// Every (level, DV_THREADS) pair the kernel identity tests sweep.
std::vector<std::pair<simd_level, int>> level_thread_pairs() {
  std::vector<std::pair<simd_level, int>> out;
  for (const auto level : supported_levels()) {
    for (const int threads : {1, 4, 8}) out.emplace_back(level, threads);
  }
  return out;
}

std::string where(const std::pair<simd_level, int>& s) {
  return std::string{simd_level_name(s.first)} +
         " threads=" + std::to_string(s.second);
}

TEST(SimdIdentity, ReluMatchesTernaryReferenceAtEveryLevel) {
  simd_state_guard guard;
  rng gen{71};
  for (std::int64_t n = 1; n <= 67; ++n) {
    const tensor x = nonfinite_randn({n}, gen);
    tensor want{{n}};
    for (std::int64_t i = 0; i < n; ++i) {
      want.data()[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }
    tensor generic{{n}};
    simd_detail::relu_generic(x.data(), n, generic.data());
    EXPECT_TRUE(bitwise_equal(generic, want)) << "generic n=" << n;
    for (const auto& s : level_thread_pairs()) {
      tensor got = tensor::full({n}, 7.0f);
      at_level(s.first, s.second, [&] {
        relu_array(x.data(), n, got.data());
        return 0;
      });
      EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n << " " << where(s);
      // In place, as a caller may run it.
      tensor inplace = x;
      at_level(s.first, s.second, [&] {
        relu_array(inplace.data(), n, inplace.data());
        return 0;
      });
      EXPECT_TRUE(bitwise_equal(inplace, want))
          << "in place n=" << n << " " << where(s);
    }
  }
}

TEST(SimdIdentity, MaxPool2x2MatchesBranchingReferenceAtEveryLevel) {
  simd_state_guard guard;
  rng gen{73};
  int cases = 0;
  for (const std::int64_t h : {2, 3, 5, 8}) {
    for (std::int64_t w = 2; w <= 41; ++w) {
      const std::int64_t planes = 1 + (h + w) % 3;
      const std::int64_t oh = h / 2, ow = w / 2;
      tensor x = nonfinite_randn({planes, h, w}, gen);
      // A window of four NaNs (pools to -inf) and a +0/-0 tie (keeps the
      // first) in the first plane.
      x.data()[0] = x.data()[1] = x.data()[w] = x.data()[w + 1] = k_nan;
      if (w >= 4) {
        x.data()[2] = -0.0f;
        x.data()[3] = 0.0f;
        x.data()[w + 2] = x.data()[w + 3] = -1.0f;
      }
      // The pre-kernel max_pool2d loop: keep a value only if it is greater
      // than the best so far.
      tensor want{{planes, oh, ow}};
      for (std::int64_t pl = 0; pl < planes; ++pl) {
        const float* plane = x.data() + pl * h * w;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            float best = -k_inf;
            for (std::int64_t ky = 0; ky < 2; ++ky) {
              for (std::int64_t kx = 0; kx < 2; ++kx) {
                const float v = plane[(2 * oy + ky) * w + 2 * ox + kx];
                if (v > best) best = v;
              }
            }
            want.data()[(pl * oh + oy) * ow + ox] = best;
          }
        }
      }
      tensor generic{{planes, oh, ow}};
      simd_detail::max_pool2x2_generic(x.data(), planes, h, w, generic.data());
      EXPECT_TRUE(bitwise_equal(generic, want))
          << "generic h=" << h << " w=" << w;
      for (const auto& s : level_thread_pairs()) {
        tensor got = tensor::full({planes, oh, ow}, 7.0f);
        at_level(s.first, s.second, [&] {
          max_pool2x2(x.data(), planes, h, w, got.data());
          return 0;
        });
        EXPECT_TRUE(bitwise_equal(got, want))
            << "h=" << h << " w=" << w << " planes=" << planes << " "
            << where(s);
      }
      ++cases;
    }
  }
  EXPECT_EQ(cases, 160);
}

/// Bitwise equal, except that any two NaNs match: when two NaNs of
/// different payloads meet in one chain, which payload survives depends
/// on the operand order the compiler picked for the scalar reference.
bool same_bits_or_both_nan(const tensor& a, const tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Sets NaN, +Inf and -Inf, in turn, at `count` seeded positions of the
/// rows [first_row, rows) of a [rows, cols] tensor. A non-finite value
/// makes every output whose chain reads it non-finite, so the row-kernel
/// test plants few of them and keeps most outputs finite.
void plant_nonfinite(tensor& t, std::int64_t first_row, int count, rng& gen) {
  const std::int64_t rows = t.extent(0), cols = t.extent(1);
  const float planted[] = {k_nan, k_inf, -k_inf};
  for (int i = 0; i < count && first_row < rows; ++i) {
    const std::int64_t r = gen.uniform_int(static_cast<int>(first_row),
                                           static_cast<int>(rows - 1));
    const std::int64_t c = gen.uniform_int(0, static_cast<int>(cols - 1));
    t.data()[r * cols + c] = planted[i % 3];
  }
}

TEST(SimdIdentity, GemmNtRowKernelMatchesGenericAtEveryLevel) {
  simd_state_guard guard;
  rng gen{79};
  // k: below one vector, one vector, one whole panel, two panels with a
  // short last one, and the street CNN's 2048 (eight panels); n: vector
  // tails at both widths and the 96 outputs of the street dense layers.
  // Non-finite values sit in three b rows and, with two or more rows, in
  // the rows of a after the first.
  for (const std::int64_t k : {5, 8, 256, 300, 2048}) {
    for (const std::int64_t n : {1, 7, 13, 96, 97}) {
      for (const std::int64_t m : {1, 2, 3, 5}) {
        tensor a = planted_randn({m, k}, gen);
        tensor b = planted_randn({n, k}, gen);
        plant_nonfinite(a, 1, 1, gen);
        plant_nonfinite(b, 0, 3, gen);
        const tensor c0 = planted_randn({m, n}, gen);
        const float alpha = 0.75f;
        tensor want = c0;
        simd_detail::gemm_nt_rows_generic(m, n, k, alpha, a.data(), b.data(),
                                          want.data());
        for (const auto& s : level_thread_pairs()) {
          tensor got = c0;
          at_level(s.first, s.second, [&] {
            simd_kernels().gemm_nt_rows(m, n, k, alpha, a.data(), b.data(),
                                        got.data());
            return 0;
          });
          EXPECT_TRUE(same_bits_or_both_nan(got, want))
              << "m=" << m << " n=" << n << " k=" << k << " " << where(s);
        }
      }
    }
  }
}

TEST(SimdIdentity, GemmNtFewRowsMatchTheSameRowsOfTheTiledPath) {
  simd_state_guard guard;
  rng gen{83};
  // Rows computed at m = 1 to 4 (the row kernel) must equal the same rows
  // computed inside a 7-row call (the packed, tiled path), for every beta
  // the dense and conv2d callers use.
  constexpr std::int64_t big_m = 7;
  for (const std::int64_t k : {2048, 300}) {
    for (const std::int64_t n : {97, 13}) {
      const tensor a = planted_randn({big_m, k}, gen);
      const tensor b = planted_randn({n, k}, gen);
      const tensor c0 = planted_randn({big_m, n}, gen);
      for (const float beta : {0.0f, 1.0f, 0.5f}) {
        const float alpha = beta == 0.5f ? -1.25f : 1.0f;
        for (const auto& s : level_thread_pairs()) {
          at_level(s.first, s.second, [&] {
            tensor whole = c0;
            gemm_nt(big_m, n, k, alpha, a.data(), b.data(), beta,
                    whole.data());
            for (const std::int64_t m : {1, 2, 3, 4}) {
              for (std::int64_t r = 0; r + m <= big_m; r += m) {
                tensor part = c0.slice_rows(r, r + m);
                if (beta == 0.0f) part.fill(k_nan);  // must not be read
                gemm_nt(m, n, k, alpha, a.data() + r * k, b.data(), beta,
                        part.data());
                EXPECT_TRUE(bitwise_equal(part, whole.slice_rows(r, r + m)))
                    << "rows " << r << ".." << r + m << " n=" << n
                    << " k=" << k << " beta=" << beta << " " << where(s);
              }
            }
            return 0;
          });
        }
      }
    }
  }
}

// -- RBF rows, kernel matrix, and the one-class SVM --------------------------------

TEST(SimdIdentity, KernelMatrixAndDecisionBatchBitIdenticalAcrossLevels) {
  simd_state_guard guard;
  rng gen{59};
  const tensor samples = tensor::randn({120, 9}, gen);
  const tensor queries = tensor::randn({33, 9}, gen);
  const double gamma = 0.05;
  auto run = [&] {
    const tensor k = kernel_matrix(kernel_kind::rbf, samples, gamma);
    one_class_svm svm;
    svm.fit(samples, {});
    return std::make_pair(k, svm.decision_batch(queries));
  };
  const auto base = at_level(simd_level::scalar, 1, run);
  // The batched row evaluation must also match the per-pair kernel exactly.
  const std::int64_t d = samples.extent(1);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      EXPECT_EQ(base.first[i * samples.extent(0) + j],
                static_cast<float>(rbf_kernel(samples.data() + i * d,
                                              samples.data() + j * d, d,
                                              gamma)));
    }
  }
  for (const auto level : supported_levels()) {
    for (const int threads : {1, 8}) {
      const auto got = at_level(level, threads, run);
      EXPECT_TRUE(bitwise_equal(got.first, base.first))
          << "kernel matrix at " << simd_level_name(level)
          << " threads=" << threads;
      ASSERT_EQ(got.second.size(), base.second.size());
      for (std::size_t i = 0; i < base.second.size(); ++i) {
        EXPECT_EQ(got.second[i], base.second[i])
            << "decision of query " << i << " at " << simd_level_name(level)
            << " threads=" << threads;
      }
    }
  }
}

// -- End-to-end: deep_validator scores ---------------------------------------------

TEST(SimdIdentity, DeepValidatorScoresBitIdenticalAcrossLevelsAndThreads) {
  simd_state_guard guard;
  const auto& world = dv::testing::shared_tiny_world();
  const tensor batch = world.test.images.slice_rows(0, 12);
  auto run = [&] {
    deep_validator validator;
    deep_validator_config cfg;
    cfg.max_train_per_class = 30;
    validator.fit(*world.model, world.train, cfg);
    return validator.evaluate(*world.model, batch);
  };
  const auto base = at_level(simd_level::scalar, 1, run);
  for (const auto level : supported_levels()) {
    // The DV_THREADS axis of this end-to-end matrix: serial for every
    // level, threaded only for the widest (test_parallel.cpp already
    // sweeps the thread axis exhaustively at the startup level).
    std::vector<int> thread_counts{1};
    if (level == supported_levels().back()) thread_counts.push_back(8);
    for (const int threads : thread_counts) {
      const auto got = at_level(level, threads, run);
      ASSERT_EQ(got.joint.size(), base.joint.size());
      for (std::size_t i = 0; i < base.joint.size(); ++i) {
        EXPECT_EQ(got.joint[i], base.joint[i])
            << "joint discrepancy of image " << i << " at "
            << simd_level_name(level) << " threads=" << threads;
        EXPECT_EQ(got.predictions[i], base.predictions[i]);
      }
      ASSERT_EQ(got.per_layer.size(), base.per_layer.size());
      for (std::size_t v = 0; v < base.per_layer.size(); ++v) {
        for (std::size_t i = 0; i < base.per_layer[v].size(); ++i) {
          EXPECT_EQ(got.per_layer[v][i], base.per_layer[v][i]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dv
