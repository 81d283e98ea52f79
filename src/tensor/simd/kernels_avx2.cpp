// AVX2 dispatch table. Compiled with -mavx2 -mfma -ffp-contract=off in its
// own TU (src/tensor/CMakeLists.txt) so the rest of the binary stays
// runnable on non-AVX hosts; the cpuid probe gates selection at runtime.
//
// Reductions run the canonical 8-lane order as two 4-wide double
// accumulators; the micro-kernel holds the whole 4x16 tile in eight ymm
// registers, the row kernel up to 4 rows x 8 outputs fed by 8x8
// transposes of the weight rows, and the direct convolution up to 6
// channels x 16 pixels in twelve. Although -mfma is on per the build contract, the kernels use
// separate mul+add on purpose: fusing rounds once where the scalar
// reference rounds twice, which would break the DV_SIMD bitwise-identity
// contract (DESIGN.md §12).
#include "tensor/simd/kernels_generic.h"
#include "tensor/simd/simd.h"

#if !defined(__AVX2__)
#error "kernels_avx2.cpp must be compiled with -mavx2 (see src/tensor/CMakeLists.txt)"
#endif

#include <immintrin.h>

namespace dv {
namespace {

/// Low / high float quads widened to double: lanes {0..3} and {4..7}.
__m256d lo_pd(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
__m256d hi_pd(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p + 4)); }

/// ((l0+l1)+(l2+l3)) of one 4-wide accumulator.
double quad_sum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const double l0 = _mm_cvtsd_f64(lo);
  const double l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double l2 = _mm_cvtsd_f64(hi);
  const double l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (l0 + l1) + (l2 + l3);
}

/// Canonical fold: (((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))) + tail.
double fold8(__m256d acc0, __m256d acc1, double tail) {
  return (quad_sum(acc0) + quad_sum(acc1)) + tail;
}

void gemm_micro_avx2(std::int64_t kc, const float* ap, const float* bp,
                     float* acc) {
  __m256 c00 = _mm256_loadu_ps(acc + 0);
  __m256 c01 = _mm256_loadu_ps(acc + 8);
  __m256 c10 = _mm256_loadu_ps(acc + 16);
  __m256 c11 = _mm256_loadu_ps(acc + 24);
  __m256 c20 = _mm256_loadu_ps(acc + 32);
  __m256 c21 = _mm256_loadu_ps(acc + 40);
  __m256 c30 = _mm256_loadu_ps(acc + 48);
  __m256 c31 = _mm256_loadu_ps(acc + 56);
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * simd_gemm_mr;
    const float* b = bp + p * simd_gemm_nr;
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    __m256 av = _mm256_set1_ps(a[0]);
    c00 = _mm256_add_ps(c00, _mm256_mul_ps(av, b0));
    c01 = _mm256_add_ps(c01, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(a[1]);
    c10 = _mm256_add_ps(c10, _mm256_mul_ps(av, b0));
    c11 = _mm256_add_ps(c11, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(a[2]);
    c20 = _mm256_add_ps(c20, _mm256_mul_ps(av, b0));
    c21 = _mm256_add_ps(c21, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(a[3]);
    c30 = _mm256_add_ps(c30, _mm256_mul_ps(av, b0));
    c31 = _mm256_add_ps(c31, _mm256_mul_ps(av, b1));
  }
  _mm256_storeu_ps(acc + 0, c00);
  _mm256_storeu_ps(acc + 8, c01);
  _mm256_storeu_ps(acc + 16, c10);
  _mm256_storeu_ps(acc + 24, c11);
  _mm256_storeu_ps(acc + 32, c20);
  _mm256_storeu_ps(acc + 40, c21);
  _mm256_storeu_ps(acc + 48, c30);
  _mm256_storeu_ps(acc + 56, c31);
}

/// In-register transpose of an 8x8 block: on entry r[q] holds row q, on
/// exit column q. Pure data movement.
void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// gemm_nt_rows for M rows and the 8 outputs whose b rows start at `b`:
/// lane l of acc[i] is element (i, l). Eight taps at a time, the 8x8
/// block of b is transposed so that vector q holds tap p + q of all eight
/// rows; the panel's last (kc mod 8) taps gather one column each. Each
/// lane runs gemm_nt_cols_generic's chain.
template <int M>
void gemm_nt_block_avx2(std::int64_t n, std::int64_t k, float alpha,
                        const float* a, const float* b, float* c) {
  const __m256 alpha_v = _mm256_set1_ps(alpha);
  for (std::int64_t p0 = 0; p0 < k; p0 += simd_gemm_kc) {
    const std::int64_t p1 = std::min(k, p0 + simd_gemm_kc);
    __m256 acc[M];
    for (int i = 0; i < M; ++i) acc[i] = _mm256_setzero_ps();
    std::int64_t p = p0;
    for (; p + 8 <= p1; p += 8) {
      __m256 col[8];
      for (int q = 0; q < 8; ++q) col[q] = _mm256_loadu_ps(b + q * k + p);
      transpose8(col);
      for (int q = 0; q < 8; ++q) {
        for (int i = 0; i < M; ++i) {
          const __m256 av = _mm256_set1_ps(a[i * k + p + q]);
          acc[i] = _mm256_add_ps(acc[i], _mm256_mul_ps(av, col[q]));
        }
      }
    }
    for (; p < p1; ++p) {
      const __m256 col =
          _mm256_set_ps(b[7 * k + p], b[6 * k + p], b[5 * k + p],
                        b[4 * k + p], b[3 * k + p], b[2 * k + p],
                        b[1 * k + p], b[p]);
      for (int i = 0; i < M; ++i) {
        const __m256 av = _mm256_set1_ps(a[i * k + p]);
        acc[i] = _mm256_add_ps(acc[i], _mm256_mul_ps(av, col));
      }
    }
    for (int i = 0; i < M; ++i) {
      float* dst = c + i * n;
      _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst),
                                          _mm256_mul_ps(alpha_v, acc[i])));
    }
  }
}

/// Rows in groups of up to four, outputs in blocks of eight; the last
/// (n mod 8) outputs run the generic chain.
void gemm_nt_rows_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                       float alpha, const float* a, const float* b,
                       float* c) {
  const std::int64_t n8 = n - n % 8;
  for (std::int64_t i0 = 0; i0 < m; i0 += 4) {
    const std::int64_t rows = std::min<std::int64_t>(4, m - i0);
    const float* ai = a + i0 * k;
    float* ci = c + i0 * n;
    for (std::int64_t j0 = 0; j0 < n8; j0 += 8) {
      const float* bj = b + j0 * k;
      switch (rows) {
        case 1: gemm_nt_block_avx2<1>(n, k, alpha, ai, bj, ci + j0); break;
        case 2: gemm_nt_block_avx2<2>(n, k, alpha, ai, bj, ci + j0); break;
        case 3: gemm_nt_block_avx2<3>(n, k, alpha, ai, bj, ci + j0); break;
        default: gemm_nt_block_avx2<4>(n, k, alpha, ai, bj, ci + j0); break;
      }
    }
    simd_detail::gemm_nt_cols_generic(rows, n, k, alpha, ai, b, ci, n8, n);
  }
}

/// One register tile of conv_direct: MO output channels x NV 8-pixel
/// vectors of one output row. `src` is the image at the tile's first
/// output pixel, `w` the weight row of its first channel and `dst` its
/// first output element; `out_plane` is the output channel stride. Each
/// lane runs conv_direct_cols_generic's chain.
template <int MO, int NV>
void conv_direct_tile_avx2(const float* src, const conv_geometry& g,
                           const float* w, float* dst,
                           std::int64_t out_plane) {
  const std::int64_t taps = g.col_rows();
  const std::int64_t plane = g.in_h * g.in_w;
  __m256 acc[MO][NV];
  std::int64_t c = 0, ky = 0, kx = 0;
  for (std::int64_t p0 = 0; p0 < taps; p0 += simd_gemm_kc) {
    const std::int64_t p1 = std::min(taps, p0 + simd_gemm_kc);
    for (int mo = 0; mo < MO; ++mo) {
      for (int v = 0; v < NV; ++v) acc[mo][v] = _mm256_setzero_ps();
    }
    for (std::int64_t p = p0; p < p1; ++p) {
      const float* row = src + c * plane + ky * g.in_w + kx;
      __m256 x[NV];
      for (int v = 0; v < NV; ++v) x[v] = _mm256_loadu_ps(row + 8 * v);
      for (int mo = 0; mo < MO; ++mo) {
        const __m256 wv = _mm256_broadcast_ss(w + mo * taps + p);
        for (int v = 0; v < NV; ++v) {
          acc[mo][v] = _mm256_add_ps(acc[mo][v], _mm256_mul_ps(wv, x[v]));
        }
      }
      if (++kx == g.kernel) {
        kx = 0;
        if (++ky == g.kernel) {
          ky = 0;
          ++c;
        }
      }
    }
    for (int mo = 0; mo < MO; ++mo) {
      for (int v = 0; v < NV; ++v) {
        float* d = dst + mo * out_plane + 8 * v;
        const __m256 base = p0 == 0 ? _mm256_setzero_ps() : _mm256_loadu_ps(d);
        _mm256_storeu_ps(d, _mm256_add_ps(base, acc[mo][v]));
      }
    }
  }
}

/// Every output channel of the NV-vector column block at (oy, x): tiles
/// of six channels, then one tile for the remainder.
template <int NV>
void conv_direct_block_avx2(const float* src, const conv_geometry& g,
                            const float* weight, std::int64_t out_c,
                            float* dst, std::int64_t out_plane) {
  const std::int64_t taps = g.col_rows();
  std::int64_t o = 0;
  for (; o + 6 <= out_c; o += 6) {
    conv_direct_tile_avx2<6, NV>(src, g, weight + o * taps,
                                 dst + o * out_plane, out_plane);
  }
  const float* w = weight + o * taps;
  float* d = dst + o * out_plane;
  switch (out_c - o) {
    case 5: conv_direct_tile_avx2<5, NV>(src, g, w, d, out_plane); break;
    case 4: conv_direct_tile_avx2<4, NV>(src, g, w, d, out_plane); break;
    case 3: conv_direct_tile_avx2<3, NV>(src, g, w, d, out_plane); break;
    case 2: conv_direct_tile_avx2<2, NV>(src, g, w, d, out_plane); break;
    case 1: conv_direct_tile_avx2<1, NV>(src, g, w, d, out_plane); break;
    default: break;
  }
}

/// Column blocks of 16 then 8 pixels per output row; the last (ow mod 8)
/// columns run the generic chain.
void conv_direct_avx2(const float* image, const conv_geometry& g,
                      const float* weight, std::int64_t out_c, float* out) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t out_plane = oh * ow;
  const std::int64_t ow16 = ow - ow % 16;
  const std::int64_t ow8 = ow - ow % 8;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const float* src = image + oy * g.in_w;
    float* dst = out + oy * ow;
    for (std::int64_t x = 0; x < ow16; x += 16) {
      conv_direct_block_avx2<2>(src + x, g, weight, out_c, dst + x, out_plane);
    }
    if (ow16 < ow8) {
      conv_direct_block_avx2<1>(src + ow16, g, weight, out_c, dst + ow16,
                                out_plane);
    }
  }
  if (ow8 < ow) {
    simd_detail::conv_direct_cols_generic(image, g, weight, out_c, ow8, ow,
                                          out);
  }
}

double squared_distance_avx2(const float* a, const float* b, std::int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    const __m256d d0 = _mm256_sub_pd(lo_pd(a + i), lo_pd(b + i));
    const __m256d d1 = _mm256_sub_pd(hi_pd(a + i), hi_pd(b + i));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    tail += d * d;
  }
  return fold8(acc0, acc1, tail);
}

void squared_distance_row_avx2(const float* x, const float* rows,
                               std::int64_t m, std::int64_t d, double* out) {
  for (std::int64_t j = 0; j < m; ++j) {
    out[j] = squared_distance_avx2(x, rows + j * d, d);
  }
}

double dot_avx2(const float* a, const float* b, std::int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(lo_pd(a + i), lo_pd(b + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(hi_pd(a + i), hi_pd(b + i)));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    tail += static_cast<double>(a[i]) * b[i];
  }
  return fold8(acc0, acc1, tail);
}

double dot_f64_avx2(const double* a, const double* b, std::int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                             _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                             _mm256_loadu_pd(b + i + 4)));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) tail += a[i] * b[i];
  return fold8(acc0, acc1, tail);
}

double l1_distance_avx2(const float* a, const float* b, std::int64_t n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    const __m256d d0 = _mm256_sub_pd(lo_pd(a + i), lo_pd(b + i));
    const __m256d d1 = _mm256_sub_pd(hi_pd(a + i), hi_pd(b + i));
    acc0 = _mm256_add_pd(acc0, _mm256_andnot_pd(sign, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_andnot_pd(sign, d1));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    tail += std::fabs(static_cast<double>(a[i]) - b[i]);
  }
  return fold8(acc0, acc1, tail);
}

double array_sum_avx2(const float* x, std::int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    acc0 = _mm256_add_pd(acc0, lo_pd(x + i));
    acc1 = _mm256_add_pd(acc1, hi_pd(x + i));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) tail += static_cast<double>(x[i]);
  return fold8(acc0, acc1, tail);
}

void add_scalar_avx2(float* x, std::int64_t n, float c) {
  const __m256 cv = _mm256_set1_ps(c);
  const std::int64_t n8 = n - n % 8;
  for (std::int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_add_ps(_mm256_loadu_ps(x + i), cv));
  }
  for (std::int64_t i = n8; i < n; ++i) x[i] += c;
}

void bn_relu_avx2(const float* x, std::int64_t n, float mean, float inv_std,
                  float gamma, float beta, float* out) {
  const __m256 m = _mm256_set1_ps(mean);
  const __m256 s = _mm256_set1_ps(inv_std);
  const __m256 g = _mm256_set1_ps(gamma);
  const __m256 b = _mm256_set1_ps(beta);
  const __m256 zero = _mm256_setzero_ps();
  const std::int64_t n8 = n - n % 8;
  for (std::int64_t i = 0; i < n8; i += 8) {
    const __m256 h = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), m), s);
    const __m256 o = _mm256_add_ps(_mm256_mul_ps(g, h), b);
    _mm256_storeu_ps(out + i, _mm256_max_ps(o, zero));
  }
  for (std::int64_t i = n8; i < n; ++i) {
    out[i] = simd_detail::bn_relu_one(x[i], mean, inv_std, gamma, beta);
  }
}

void relu_avx2(const float* x, std::int64_t n, float* out) {
  const __m256 zero = _mm256_setzero_ps();
  const std::int64_t n8 = n - n % 8;
  for (std::int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (std::int64_t i = n8; i < n; ++i) out[i] = simd_detail::relu_one(x[i]);
}

/// Even and odd elements of the 16 floats at p: {p[0], p[2], ..., p[14]}
/// and {p[1], p[3], ..., p[15]}.
void deinterleave16(const float* p, __m256& even, __m256& odd) {
  const __m256 lo = _mm256_loadu_ps(p);
  const __m256 hi = _mm256_loadu_ps(p + 8);
  // Within each 128-bit half: {lo0, lo2, hi0, hi2}; the 64-bit permute
  // then orders the halves' pairs as lo, lo, hi, hi.
  even = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0))),
      _MM_SHUFFLE(3, 1, 2, 0)));
  odd = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1))),
      _MM_SHUFFLE(3, 1, 2, 0)));
}

/// Eight outputs per vector, each the max_pool2x2_cols_generic chain:
/// max(v, best) keeps best on NaN and on ties, as max_step does.
void max_pool2x2_cols_avx2(const float* r0, const float* r1, std::int64_t ow,
                           float* dst) {
  const __m256 ninf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const std::int64_t ow8 = ow - ow % 8;
  for (std::int64_t ox = 0; ox < ow8; ox += 8) {
    __m256 e0, o0, e1, o1;
    deinterleave16(r0 + 2 * ox, e0, o0);
    deinterleave16(r1 + 2 * ox, e1, o1);
    __m256 best = _mm256_max_ps(e0, ninf);
    best = _mm256_max_ps(o0, best);
    best = _mm256_max_ps(e1, best);
    _mm256_storeu_ps(dst + ox, _mm256_max_ps(o1, best));
  }
  simd_detail::max_pool2x2_cols_generic(r0, r1, ow8, ow, dst);
}

void max_pool2x2_avx2(const float* x, std::int64_t planes, std::int64_t h,
                      std::int64_t w, float* out) {
  simd_detail::max_pool2x2_impl(x, planes, h, w, out, max_pool2x2_cols_avx2);
}

void add_rows_avx2(float* dst, const float* src, std::int64_t n) {
  const std::int64_t n8 = n - n % 8;
  for (std::int64_t i = 0; i < n8; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(src + i)));
  }
  for (std::int64_t i = n8; i < n; ++i) dst[i] += src[i];
}

void col2im_avx2(const float* col, const conv_geometry& g, float* image) {
  simd_detail::col2im_impl(col, g, image, add_rows_avx2);
}

}  // namespace

extern const simd_kernel_table k_simd_table_avx2;

const simd_kernel_table k_simd_table_avx2 = {
    simd_level::avx2,
    gemm_micro_avx2,
    gemm_nt_rows_avx2,
    conv_direct_avx2,
    simd_detail::im2col_shared,
    col2im_avx2,
    add_scalar_avx2,
    bn_relu_avx2,
    relu_avx2,
    max_pool2x2_avx2,
    array_sum_avx2,
    squared_distance_avx2,
    squared_distance_row_avx2,
    dot_avx2,
    dot_f64_avx2,
    l1_distance_avx2,
};

}  // namespace dv
