// Canonical portable implementations of every dispatch-table kernel.
// These define the reference bit patterns: the scalar table points
// straight at them, and the SSE2/AVX2 TUs fall back to them on targets
// where the intrinsics are unavailable (and reuse the shared data-movement
// kernels, which are ISA-independent).
//
// Horizontal reductions follow the fixed 8-lane order documented at
// `simd_reduce_lanes` (tensor/simd/simd.h): lane l accumulates elements
// l, l+8, ..., the (n mod 8) trailing elements accumulate sequentially
// into `tail`, and the total folds as
// (((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))) + tail. Vector variants must
// reproduce exactly this chain per lane — and must not fuse the mul+add
// (no FMA; all kernel TUs build with -ffp-contract=off).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/ops.h"
#include "tensor/simd/simd.h"

namespace dv::simd_detail {

/// Folds the 8 lane accumulators and the scalar tail in the canonical
/// order shared by every ISA.
inline double reduce_lanes(const double* lane, double tail) {
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
         tail;
}

inline void gemm_micro_generic(std::int64_t kc, const float* ap,
                               const float* bp, float* acc) {
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * simd_gemm_mr;
    const float* b = bp + p * simd_gemm_nr;
    for (std::int64_t i = 0; i < simd_gemm_mr; ++i) {
      const float av = a[i];
      float* row = acc + i * simd_gemm_nr;
      for (std::int64_t j = 0; j < simd_gemm_nr; ++j) row[j] += av * b[j];
    }
  }
}

/// conv_direct over output columns [x0, x1) of every output row and
/// channel. Each output element runs exactly the chain the tiled GEMM runs
/// on the im2col matrix: `acc` starts at +0 and adds weight * tap for taps
/// p = (c, ky, kx) in ascending order, one separate multiply and add per
/// step; every simd_gemm_kc taps the chain's sum folds onto the output
/// (zero before the first fold) and `acc` restarts at +0. The vector
/// variants run the same chain per lane and call this for their column
/// tails; here the column loop is innermost so each step is one pass over
/// a row of independent accumulators.
inline void conv_direct_cols_generic(const float* image, const conv_geometry& g,
                                     const float* weight, std::int64_t out_c,
                                     std::int64_t x0, std::int64_t x1,
                                     float* out) {
  constexpr std::int64_t chunk = 64;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t taps = g.col_rows();
  const std::int64_t plane = g.in_h * g.in_w;
  float acc[chunk];
  for (std::int64_t o = 0; o < out_c; ++o) {
    const float* w = weight + o * taps;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t xc = x0; xc < x1; xc += chunk) {
        const std::int64_t len = std::min(chunk, x1 - xc);
        const float* src = image + oy * g.in_w + xc;
        float* dst = out + (o * oh + oy) * ow + xc;
        std::int64_t c = 0, ky = 0, kx = 0;
        for (std::int64_t p0 = 0; p0 < taps; p0 += simd_gemm_kc) {
          const std::int64_t p1 = std::min(taps, p0 + simd_gemm_kc);
          std::fill_n(acc, len, 0.0f);
          for (std::int64_t p = p0; p < p1; ++p) {
            const float wv = w[p];
            const float* row = src + c * plane + ky * g.in_w + kx;
            for (std::int64_t l = 0; l < len; ++l) acc[l] += wv * row[l];
            if (++kx == g.kernel) {
              kx = 0;
              if (++ky == g.kernel) {
                ky = 0;
                ++c;
              }
            }
          }
          for (std::int64_t l = 0; l < len; ++l) {
            dst[l] = (p0 == 0 ? 0.0f : dst[l]) + acc[l];
          }
        }
      }
    }
  }
}

inline void conv_direct_generic(const float* image, const conv_geometry& g,
                                const float* weight, std::int64_t out_c,
                                float* out) {
  conv_direct_cols_generic(image, g, weight, out_c, 0, g.out_w(), out);
}

/// gemm_nt_rows over output columns [j0, j1) of every row. Each element
/// runs the tiled GEMM's chain (gemm_micro_generic on the packed panels):
/// per simd_gemm_kc panel `acc` starts at +0 and adds a[i][p] * b[j][p]
/// for p ascending, then c[i][j] += alpha * acc. The vector variants run
/// the same chain per lane and call this for their column tails.
inline void gemm_nt_cols_generic(std::int64_t m, std::int64_t n,
                                 std::int64_t k, float alpha, const float* a,
                                 const float* b, float* c, std::int64_t j0,
                                 std::int64_t j1) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (std::int64_t j = j0; j < j1; ++j) {
      const float* brow = b + j * k;
      for (std::int64_t p0 = 0; p0 < k; p0 += simd_gemm_kc) {
        const std::int64_t p1 = std::min(k, p0 + simd_gemm_kc);
        float acc = 0.0f;
        for (std::int64_t p = p0; p < p1; ++p) acc += arow[p] * brow[p];
        c[i * n + j] += alpha * acc;
      }
    }
  }
}

inline void gemm_nt_rows_generic(std::int64_t m, std::int64_t n,
                                 std::int64_t k, float alpha, const float* a,
                                 const float* b, float* c) {
  gemm_nt_cols_generic(m, n, k, alpha, a, b, c, 0, n);
}

inline double squared_distance_generic(const float* a, const float* b,
                                       std::int64_t n) {
  double lane[simd_reduce_lanes] = {};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    for (std::int64_t l = 0; l < simd_reduce_lanes; ++l) {
      const double d = static_cast<double>(a[i + l]) - b[i + l];
      lane[l] += d * d;
    }
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    tail += d * d;
  }
  return reduce_lanes(lane, tail);
}

inline void squared_distance_row_generic(const float* x, const float* rows,
                                         std::int64_t m, std::int64_t d,
                                         double* out) {
  for (std::int64_t j = 0; j < m; ++j) {
    out[j] = squared_distance_generic(x, rows + j * d, d);
  }
}

inline double dot_generic(const float* a, const float* b, std::int64_t n) {
  double lane[simd_reduce_lanes] = {};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    for (std::int64_t l = 0; l < simd_reduce_lanes; ++l) {
      lane[l] += static_cast<double>(a[i + l]) * b[i + l];
    }
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    tail += static_cast<double>(a[i]) * b[i];
  }
  return reduce_lanes(lane, tail);
}

inline double dot_f64_generic(const double* a, const double* b,
                              std::int64_t n) {
  double lane[simd_reduce_lanes] = {};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    for (std::int64_t l = 0; l < simd_reduce_lanes; ++l) {
      lane[l] += a[i + l] * b[i + l];
    }
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) tail += a[i] * b[i];
  return reduce_lanes(lane, tail);
}

inline double l1_distance_generic(const float* a, const float* b,
                                  std::int64_t n) {
  double lane[simd_reduce_lanes] = {};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    for (std::int64_t l = 0; l < simd_reduce_lanes; ++l) {
      lane[l] += std::fabs(static_cast<double>(a[i + l]) - b[i + l]);
    }
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    tail += std::fabs(static_cast<double>(a[i]) - b[i]);
  }
  return reduce_lanes(lane, tail);
}

inline double array_sum_generic(const float* x, std::int64_t n) {
  double lane[simd_reduce_lanes] = {};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    for (std::int64_t l = 0; l < simd_reduce_lanes; ++l) {
      lane[l] += static_cast<double>(x[i + l]);
    }
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) tail += static_cast<double>(x[i]);
  return reduce_lanes(lane, tail);
}

inline void add_scalar_generic(float* x, std::int64_t n, float c) {
  for (std::int64_t i = 0; i < n; ++i) x[i] += c;
}

/// The ReLU of every level. The vector variants take max(o, 0) with the
/// zero as the second operand, which returns +0 for NaN and -0 exactly as
/// this does (the other operand order returns NaN and -0).
inline float relu_one(float o) { return o > 0.0f ? o : 0.0f; }

inline void relu_generic(const float* x, std::int64_t n, float* out) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = relu_one(x[i]);
}

/// batch_norm::infer's per-element arithmetic then relu_one. The vector
/// variants compute the same three roundings.
inline float bn_relu_one(float x, float mean, float inv_std, float gamma,
                         float beta) {
  const float h = (x - mean) * inv_std;
  const float o = gamma * h + beta;
  return relu_one(o);
}

inline void bn_relu_generic(const float* x, std::int64_t n, float mean,
                            float inv_std, float gamma, float beta,
                            float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = bn_relu_one(x[i], mean, inv_std, gamma, beta);
  }
}

/// One step of a max-pool chain: the vector max with the running best as
/// the second operand, so NaN and a tie keep `best`.
inline float max_step(float v, float best) { return v > best ? v : best; }

/// Output columns [x0, x1) of one 2x2 max-pool row: r0 and r1 are the two
/// input rows, scanned (r0, r0 + 1, r1, r1 + 1) from -inf.
inline void max_pool2x2_cols_generic(const float* r0, const float* r1,
                                     std::int64_t x0, std::int64_t x1,
                                     float* dst) {
  for (std::int64_t ox = x0; ox < x1; ++ox) {
    float best = max_step(r0[2 * ox], -std::numeric_limits<float>::infinity());
    best = max_step(r0[2 * ox + 1], best);
    best = max_step(r1[2 * ox], best);
    dst[ox] = max_step(r1[2 * ox + 1], best);
  }
}

/// Every 2x2 max-pool row of every plane; `cols` pools one output row.
template <typename Cols>
inline void max_pool2x2_impl(const float* x, std::int64_t planes,
                             std::int64_t h, std::int64_t w, float* out,
                             Cols cols) {
  const std::int64_t oh = h / 2, ow = w / 2;
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* plane = x + pl * h * w;
    for (std::int64_t oy = 0; oy < oh; ++oy, out += ow) {
      const float* r0 = plane + 2 * oy * w;
      cols(r0, r0 + w, ow, out);
    }
  }
}

inline void max_pool2x2_generic(const float* x, std::int64_t planes,
                                std::int64_t h, std::int64_t w, float* out) {
  max_pool2x2_impl(x, planes, h, w, out,
                   [](const float* r0, const float* r1, std::int64_t ow,
                      float* dst) {
                     max_pool2x2_cols_generic(r0, r1, 0, ow, dst);
                   });
}

/// im2col is pure data movement (copies and zero fills), so one shared
/// implementation serves every dispatch level; the win over the original
/// per-element loop is the contiguous memcpy of the stride-1 interior.
inline void im2col_shared(const float* image, const conv_geometry& g,
                          float* col) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out = col + row * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * g.stride + ky - g.pad;
          float* dst = out + oy * ow;
          if (iy < 0 || iy >= g.in_h) {
            std::memset(dst, 0, static_cast<std::size_t>(ow) * sizeof(float));
            continue;
          }
          const float* src = plane + iy * g.in_w;
          if (g.stride == 1) {
            // ix = ox + kx - pad: zeros where ix < 0 or ix >= in_w, one
            // contiguous copy in between.
            const std::int64_t ix0 = kx - g.pad;
            const std::int64_t lo =
                std::min(ow, ix0 < 0 ? -ix0 : std::int64_t{0});
            const std::int64_t hi = std::max(lo, std::min(ow, g.in_w - ix0));
            if (lo > 0) {
              std::memset(dst, 0,
                          static_cast<std::size_t>(lo) * sizeof(float));
            }
            if (hi > lo) {
              std::memcpy(dst + lo, src + ix0 + lo,
                          static_cast<std::size_t>(hi - lo) * sizeof(float));
            }
            if (ow > hi) {
              std::memset(dst + hi, 0,
                          static_cast<std::size_t>(ow - hi) * sizeof(float));
            }
          } else {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t ix = ox * g.stride + kx - g.pad;
              dst[ox] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

/// col2im with the contiguous stride-1 interior routed through `add_rows`
/// (dst[i] += src[i] for i in [0, n)), which each ISA vectorizes. Every
/// destination element receives its additions in the same fixed
/// (c, ky, kx, oy) order regardless of ISA, so results stay bitwise
/// identical.
template <typename AddRows>
inline void col2im_impl(const float* col, const conv_geometry& g,
                        float* image, AddRows add_rows) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* src = col + row * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst = plane + iy * g.in_w;
          if (g.stride == 1) {
            const std::int64_t ix0 = kx - g.pad;
            const std::int64_t lo =
                std::min(ow, ix0 < 0 ? -ix0 : std::int64_t{0});
            const std::int64_t hi = std::max(lo, std::min(ow, g.in_w - ix0));
            if (hi > lo) {
              add_rows(dst + ix0 + lo, src + oy * ow + lo, hi - lo);
            }
          } else {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t ix = ox * g.stride + kx - g.pad;
              if (ix >= 0 && ix < g.in_w) dst[ix] += src[oy * ow + ox];
            }
          }
        }
      }
    }
  }
}

inline void add_rows_generic(float* dst, const float* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

inline void col2im_generic(const float* col, const conv_geometry& g,
                           float* image) {
  col2im_impl(col, g, image, add_rows_generic);
}

}  // namespace dv::simd_detail
