// SSE2 dispatch table. SSE2 is part of the x86-64 baseline, so this TU
// needs no extra compiler flags; on non-x86 targets it degrades to the
// generic implementations (and the level is never selected, because the
// cpuid probe reports sse2=false there).
//
// Reductions run the canonical 8-lane order as four 2-wide double
// accumulators; the micro-kernel processes the 4x16 tile in four 4-column
// passes, the row kernel holds up to 4 rows x 4 outputs fed by 4x4
// transposes, and the direct convolution holds up to 6 channels x 8
// pixels in twelve xmm registers. No FMA anywhere (see DESIGN.md §12).
#include "tensor/simd/kernels_generic.h"
#include "tensor/simd/simd.h"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace dv {
namespace {

/// Low / high float pairs widened to double: lanes {0,1} and {2,3}.
__m128d lo_pd(__m128 v) { return _mm_cvtps_pd(v); }
__m128d hi_pd(__m128 v) { return _mm_cvtps_pd(_mm_movehl_ps(v, v)); }

/// l0 + l1 of one 2-wide accumulator.
double pair_sum(__m128d v) {
  return _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
}

/// Canonical fold: (((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))) + tail.
double fold8(const __m128d* acc, double tail) {
  return ((pair_sum(acc[0]) + pair_sum(acc[1])) +
          (pair_sum(acc[2]) + pair_sum(acc[3]))) +
         tail;
}

void gemm_micro_sse2(std::int64_t kc, const float* ap, const float* bp,
                     float* acc) {
  // Four passes over the K panel, one per 4-column quarter: keeps the
  // live register set at 4 accumulators + a + b (the panels are L1
  // resident, so the re-reads are cheap).
  for (std::int64_t q = 0; q < 4; ++q) {
    float* acc0 = acc + 0 * simd_gemm_nr + q * 4;
    float* acc1 = acc + 1 * simd_gemm_nr + q * 4;
    float* acc2 = acc + 2 * simd_gemm_nr + q * 4;
    float* acc3 = acc + 3 * simd_gemm_nr + q * 4;
    __m128 c0 = _mm_loadu_ps(acc0);
    __m128 c1 = _mm_loadu_ps(acc1);
    __m128 c2 = _mm_loadu_ps(acc2);
    __m128 c3 = _mm_loadu_ps(acc3);
    const float* b = bp + q * 4;
    for (std::int64_t p = 0; p < kc; ++p) {
      const __m128 bv = _mm_loadu_ps(b + p * simd_gemm_nr);
      const float* a = ap + p * simd_gemm_mr;
      c0 = _mm_add_ps(c0, _mm_mul_ps(_mm_set1_ps(a[0]), bv));
      c1 = _mm_add_ps(c1, _mm_mul_ps(_mm_set1_ps(a[1]), bv));
      c2 = _mm_add_ps(c2, _mm_mul_ps(_mm_set1_ps(a[2]), bv));
      c3 = _mm_add_ps(c3, _mm_mul_ps(_mm_set1_ps(a[3]), bv));
    }
    _mm_storeu_ps(acc0, c0);
    _mm_storeu_ps(acc1, c1);
    _mm_storeu_ps(acc2, c2);
    _mm_storeu_ps(acc3, c3);
  }
}

/// In-register transpose of a 4x4 block: on entry r[q] holds row q, on
/// exit column q.
void transpose4(__m128 r[4]) {
  const __m128 t0 = _mm_unpacklo_ps(r[0], r[1]);
  const __m128 t1 = _mm_unpackhi_ps(r[0], r[1]);
  const __m128 t2 = _mm_unpacklo_ps(r[2], r[3]);
  const __m128 t3 = _mm_unpackhi_ps(r[2], r[3]);
  r[0] = _mm_movelh_ps(t0, t2);
  r[1] = _mm_movehl_ps(t2, t0);
  r[2] = _mm_movelh_ps(t1, t3);
  r[3] = _mm_movehl_ps(t3, t1);
}

/// gemm_nt_rows for M rows and the 4 outputs whose b rows start at `b`
/// (see gemm_nt_block_avx2): 4x4 transposes, one column gather per
/// leftover tap.
template <int M>
void gemm_nt_block_sse2(std::int64_t n, std::int64_t k, float alpha,
                        const float* a, const float* b, float* c) {
  const __m128 alpha_v = _mm_set1_ps(alpha);
  for (std::int64_t p0 = 0; p0 < k; p0 += simd_gemm_kc) {
    const std::int64_t p1 = std::min(k, p0 + simd_gemm_kc);
    __m128 acc[M];
    for (int i = 0; i < M; ++i) acc[i] = _mm_setzero_ps();
    std::int64_t p = p0;
    for (; p + 4 <= p1; p += 4) {
      __m128 col[4];
      for (int q = 0; q < 4; ++q) col[q] = _mm_loadu_ps(b + q * k + p);
      transpose4(col);
      for (int q = 0; q < 4; ++q) {
        for (int i = 0; i < M; ++i) {
          const __m128 av = _mm_set1_ps(a[i * k + p + q]);
          acc[i] = _mm_add_ps(acc[i], _mm_mul_ps(av, col[q]));
        }
      }
    }
    for (; p < p1; ++p) {
      const __m128 col =
          _mm_set_ps(b[3 * k + p], b[2 * k + p], b[1 * k + p], b[p]);
      for (int i = 0; i < M; ++i) {
        const __m128 av = _mm_set1_ps(a[i * k + p]);
        acc[i] = _mm_add_ps(acc[i], _mm_mul_ps(av, col));
      }
    }
    for (int i = 0; i < M; ++i) {
      float* dst = c + i * n;
      _mm_storeu_ps(dst, _mm_add_ps(_mm_loadu_ps(dst),
                                    _mm_mul_ps(alpha_v, acc[i])));
    }
  }
}

/// Rows in groups of up to four, outputs in blocks of four; the last
/// (n mod 4) outputs run the generic chain.
void gemm_nt_rows_sse2(std::int64_t m, std::int64_t n, std::int64_t k,
                       float alpha, const float* a, const float* b,
                       float* c) {
  const std::int64_t n4 = n - n % 4;
  for (std::int64_t i0 = 0; i0 < m; i0 += 4) {
    const std::int64_t rows = std::min<std::int64_t>(4, m - i0);
    const float* ai = a + i0 * k;
    float* ci = c + i0 * n;
    for (std::int64_t j0 = 0; j0 < n4; j0 += 4) {
      const float* bj = b + j0 * k;
      switch (rows) {
        case 1: gemm_nt_block_sse2<1>(n, k, alpha, ai, bj, ci + j0); break;
        case 2: gemm_nt_block_sse2<2>(n, k, alpha, ai, bj, ci + j0); break;
        case 3: gemm_nt_block_sse2<3>(n, k, alpha, ai, bj, ci + j0); break;
        default: gemm_nt_block_sse2<4>(n, k, alpha, ai, bj, ci + j0); break;
      }
    }
    simd_detail::gemm_nt_cols_generic(rows, n, k, alpha, ai, b, ci, n4, n);
  }
}

/// One register tile of conv_direct: MO output channels x NV 4-pixel
/// vectors of one output row (see conv_direct_tile_avx2).
template <int MO, int NV>
void conv_direct_tile_sse2(const float* src, const conv_geometry& g,
                           const float* w, float* dst,
                           std::int64_t out_plane) {
  const std::int64_t taps = g.col_rows();
  const std::int64_t plane = g.in_h * g.in_w;
  __m128 acc[MO][NV];
  std::int64_t c = 0, ky = 0, kx = 0;
  for (std::int64_t p0 = 0; p0 < taps; p0 += simd_gemm_kc) {
    const std::int64_t p1 = std::min(taps, p0 + simd_gemm_kc);
    for (int mo = 0; mo < MO; ++mo) {
      for (int v = 0; v < NV; ++v) acc[mo][v] = _mm_setzero_ps();
    }
    for (std::int64_t p = p0; p < p1; ++p) {
      const float* row = src + c * plane + ky * g.in_w + kx;
      __m128 x[NV];
      for (int v = 0; v < NV; ++v) x[v] = _mm_loadu_ps(row + 4 * v);
      for (int mo = 0; mo < MO; ++mo) {
        const __m128 wv = _mm_set1_ps(w[mo * taps + p]);
        for (int v = 0; v < NV; ++v) {
          acc[mo][v] = _mm_add_ps(acc[mo][v], _mm_mul_ps(wv, x[v]));
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
        float* d = dst + mo * out_plane + 4 * v;
        const __m128 base = p0 == 0 ? _mm_setzero_ps() : _mm_loadu_ps(d);
        _mm_storeu_ps(d, _mm_add_ps(base, acc[mo][v]));
      }
    }
  }
}

/// Every output channel of the NV-vector column block at (oy, x): tiles
/// of six channels, then one tile for the remainder.
template <int NV>
void conv_direct_block_sse2(const float* src, const conv_geometry& g,
                            const float* weight, std::int64_t out_c,
                            float* dst, std::int64_t out_plane) {
  const std::int64_t taps = g.col_rows();
  std::int64_t o = 0;
  for (; o + 6 <= out_c; o += 6) {
    conv_direct_tile_sse2<6, NV>(src, g, weight + o * taps,
                                 dst + o * out_plane, out_plane);
  }
  const float* w = weight + o * taps;
  float* d = dst + o * out_plane;
  switch (out_c - o) {
    case 5: conv_direct_tile_sse2<5, NV>(src, g, w, d, out_plane); break;
    case 4: conv_direct_tile_sse2<4, NV>(src, g, w, d, out_plane); break;
    case 3: conv_direct_tile_sse2<3, NV>(src, g, w, d, out_plane); break;
    case 2: conv_direct_tile_sse2<2, NV>(src, g, w, d, out_plane); break;
    case 1: conv_direct_tile_sse2<1, NV>(src, g, w, d, out_plane); break;
    default: break;
  }
}

/// Column blocks of 8 then 4 pixels per output row; the last (ow mod 4)
/// columns run the generic chain.
void conv_direct_sse2(const float* image, const conv_geometry& g,
                      const float* weight, std::int64_t out_c, float* out) {
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t out_plane = oh * ow;
  const std::int64_t ow8 = ow - ow % 8;
  const std::int64_t ow4 = ow - ow % 4;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const float* src = image + oy * g.in_w;
    float* dst = out + oy * ow;
    for (std::int64_t x = 0; x < ow8; x += 8) {
      conv_direct_block_sse2<2>(src + x, g, weight, out_c, dst + x, out_plane);
    }
    if (ow8 < ow4) {
      conv_direct_block_sse2<1>(src + ow8, g, weight, out_c, dst + ow8,
                                out_plane);
    }
  }
  if (ow4 < ow) {
    simd_detail::conv_direct_cols_generic(image, g, weight, out_c, ow4, ow,
                                          out);
  }
}

double squared_distance_sse2(const float* a, const float* b, std::int64_t n) {
  __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(),
                    _mm_setzero_pd()};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    const __m128 af0 = _mm_loadu_ps(a + i);
    const __m128 af1 = _mm_loadu_ps(a + i + 4);
    const __m128 bf0 = _mm_loadu_ps(b + i);
    const __m128 bf1 = _mm_loadu_ps(b + i + 4);
    const __m128d d0 = _mm_sub_pd(lo_pd(af0), lo_pd(bf0));
    const __m128d d1 = _mm_sub_pd(hi_pd(af0), hi_pd(bf0));
    const __m128d d2 = _mm_sub_pd(lo_pd(af1), lo_pd(bf1));
    const __m128d d3 = _mm_sub_pd(hi_pd(af1), hi_pd(bf1));
    acc[0] = _mm_add_pd(acc[0], _mm_mul_pd(d0, d0));
    acc[1] = _mm_add_pd(acc[1], _mm_mul_pd(d1, d1));
    acc[2] = _mm_add_pd(acc[2], _mm_mul_pd(d2, d2));
    acc[3] = _mm_add_pd(acc[3], _mm_mul_pd(d3, d3));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    tail += d * d;
  }
  return fold8(acc, tail);
}

void squared_distance_row_sse2(const float* x, const float* rows,
                               std::int64_t m, std::int64_t d, double* out) {
  for (std::int64_t j = 0; j < m; ++j) {
    out[j] = squared_distance_sse2(x, rows + j * d, d);
  }
}

double dot_sse2(const float* a, const float* b, std::int64_t n) {
  __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(),
                    _mm_setzero_pd()};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    const __m128 af0 = _mm_loadu_ps(a + i);
    const __m128 af1 = _mm_loadu_ps(a + i + 4);
    const __m128 bf0 = _mm_loadu_ps(b + i);
    const __m128 bf1 = _mm_loadu_ps(b + i + 4);
    acc[0] = _mm_add_pd(acc[0], _mm_mul_pd(lo_pd(af0), lo_pd(bf0)));
    acc[1] = _mm_add_pd(acc[1], _mm_mul_pd(hi_pd(af0), hi_pd(bf0)));
    acc[2] = _mm_add_pd(acc[2], _mm_mul_pd(lo_pd(af1), lo_pd(bf1)));
    acc[3] = _mm_add_pd(acc[3], _mm_mul_pd(hi_pd(af1), hi_pd(bf1)));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    tail += static_cast<double>(a[i]) * b[i];
  }
  return fold8(acc, tail);
}

double dot_f64_sse2(const double* a, const double* b, std::int64_t n) {
  __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(),
                    _mm_setzero_pd()};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    acc[0] = _mm_add_pd(acc[0], _mm_mul_pd(_mm_loadu_pd(a + i),
                                           _mm_loadu_pd(b + i)));
    acc[1] = _mm_add_pd(acc[1], _mm_mul_pd(_mm_loadu_pd(a + i + 2),
                                           _mm_loadu_pd(b + i + 2)));
    acc[2] = _mm_add_pd(acc[2], _mm_mul_pd(_mm_loadu_pd(a + i + 4),
                                           _mm_loadu_pd(b + i + 4)));
    acc[3] = _mm_add_pd(acc[3], _mm_mul_pd(_mm_loadu_pd(a + i + 6),
                                           _mm_loadu_pd(b + i + 6)));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) tail += a[i] * b[i];
  return fold8(acc, tail);
}

double l1_distance_sse2(const float* a, const float* b, std::int64_t n) {
  const __m128d sign = _mm_set1_pd(-0.0);
  __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(),
                    _mm_setzero_pd()};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    const __m128 af0 = _mm_loadu_ps(a + i);
    const __m128 af1 = _mm_loadu_ps(a + i + 4);
    const __m128 bf0 = _mm_loadu_ps(b + i);
    const __m128 bf1 = _mm_loadu_ps(b + i + 4);
    const __m128d d0 = _mm_sub_pd(lo_pd(af0), lo_pd(bf0));
    const __m128d d1 = _mm_sub_pd(hi_pd(af0), hi_pd(bf0));
    const __m128d d2 = _mm_sub_pd(lo_pd(af1), lo_pd(bf1));
    const __m128d d3 = _mm_sub_pd(hi_pd(af1), hi_pd(bf1));
    acc[0] = _mm_add_pd(acc[0], _mm_andnot_pd(sign, d0));
    acc[1] = _mm_add_pd(acc[1], _mm_andnot_pd(sign, d1));
    acc[2] = _mm_add_pd(acc[2], _mm_andnot_pd(sign, d2));
    acc[3] = _mm_add_pd(acc[3], _mm_andnot_pd(sign, d3));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) {
    tail += std::fabs(static_cast<double>(a[i]) - b[i]);
  }
  return fold8(acc, tail);
}

double array_sum_sse2(const float* x, std::int64_t n) {
  __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(),
                    _mm_setzero_pd()};
  const std::int64_t n8 = n - n % simd_reduce_lanes;
  for (std::int64_t i = 0; i < n8; i += simd_reduce_lanes) {
    const __m128 xf0 = _mm_loadu_ps(x + i);
    const __m128 xf1 = _mm_loadu_ps(x + i + 4);
    acc[0] = _mm_add_pd(acc[0], lo_pd(xf0));
    acc[1] = _mm_add_pd(acc[1], hi_pd(xf0));
    acc[2] = _mm_add_pd(acc[2], lo_pd(xf1));
    acc[3] = _mm_add_pd(acc[3], hi_pd(xf1));
  }
  double tail = 0.0;
  for (std::int64_t i = n8; i < n; ++i) tail += static_cast<double>(x[i]);
  return fold8(acc, tail);
}

void add_scalar_sse2(float* x, std::int64_t n, float c) {
  const __m128 cv = _mm_set1_ps(c);
  const std::int64_t n4 = n - n % 4;
  for (std::int64_t i = 0; i < n4; i += 4) {
    _mm_storeu_ps(x + i, _mm_add_ps(_mm_loadu_ps(x + i), cv));
  }
  for (std::int64_t i = n4; i < n; ++i) x[i] += c;
}

void bn_relu_sse2(const float* x, std::int64_t n, float mean, float inv_std,
                  float gamma, float beta, float* out) {
  const __m128 m = _mm_set1_ps(mean);
  const __m128 s = _mm_set1_ps(inv_std);
  const __m128 g = _mm_set1_ps(gamma);
  const __m128 b = _mm_set1_ps(beta);
  const __m128 zero = _mm_setzero_ps();
  const std::int64_t n4 = n - n % 4;
  for (std::int64_t i = 0; i < n4; i += 4) {
    const __m128 h = _mm_mul_ps(_mm_sub_ps(_mm_loadu_ps(x + i), m), s);
    const __m128 o = _mm_add_ps(_mm_mul_ps(g, h), b);
    _mm_storeu_ps(out + i, _mm_max_ps(o, zero));
  }
  for (std::int64_t i = n4; i < n; ++i) {
    out[i] = simd_detail::bn_relu_one(x[i], mean, inv_std, gamma, beta);
  }
}

void relu_sse2(const float* x, std::int64_t n, float* out) {
  const __m128 zero = _mm_setzero_ps();
  const std::int64_t n4 = n - n % 4;
  for (std::int64_t i = 0; i < n4; i += 4) {
    _mm_storeu_ps(out + i, _mm_max_ps(_mm_loadu_ps(x + i), zero));
  }
  for (std::int64_t i = n4; i < n; ++i) out[i] = simd_detail::relu_one(x[i]);
}

/// Four outputs per vector (see max_pool2x2_cols_avx2); one shuffle
/// splits 8 floats into their even and odd elements.
void max_pool2x2_cols_sse2(const float* r0, const float* r1, std::int64_t ow,
                           float* dst) {
  const __m128 ninf = _mm_set1_ps(-std::numeric_limits<float>::infinity());
  const std::int64_t ow4 = ow - ow % 4;
  for (std::int64_t ox = 0; ox < ow4; ox += 4) {
    const __m128 a0 = _mm_loadu_ps(r0 + 2 * ox);
    const __m128 a1 = _mm_loadu_ps(r0 + 2 * ox + 4);
    const __m128 b0 = _mm_loadu_ps(r1 + 2 * ox);
    const __m128 b1 = _mm_loadu_ps(r1 + 2 * ox + 4);
    __m128 best =
        _mm_max_ps(_mm_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0)), ninf);
    best = _mm_max_ps(_mm_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1)), best);
    best = _mm_max_ps(_mm_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0)), best);
    best = _mm_max_ps(_mm_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1)), best);
    _mm_storeu_ps(dst + ox, best);
  }
  simd_detail::max_pool2x2_cols_generic(r0, r1, ow4, ow, dst);
}

void max_pool2x2_sse2(const float* x, std::int64_t planes, std::int64_t h,
                      std::int64_t w, float* out) {
  simd_detail::max_pool2x2_impl(x, planes, h, w, out, max_pool2x2_cols_sse2);
}

void add_rows_sse2(float* dst, const float* src, std::int64_t n) {
  const std::int64_t n4 = n - n % 4;
  for (std::int64_t i = 0; i < n4; i += 4) {
    _mm_storeu_ps(dst + i,
                  _mm_add_ps(_mm_loadu_ps(dst + i), _mm_loadu_ps(src + i)));
  }
  for (std::int64_t i = n4; i < n; ++i) dst[i] += src[i];
}

void col2im_sse2(const float* col, const conv_geometry& g, float* image) {
  simd_detail::col2im_impl(col, g, image, add_rows_sse2);
}

}  // namespace
}  // namespace dv

#endif  // __SSE2__

namespace dv {

extern const simd_kernel_table k_simd_table_sse2;

const simd_kernel_table k_simd_table_sse2 = {
    simd_level::sse2,
#if defined(__SSE2__)
    gemm_micro_sse2,
    gemm_nt_rows_sse2,
    conv_direct_sse2,
    simd_detail::im2col_shared,
    col2im_sse2,
    add_scalar_sse2,
    bn_relu_sse2,
    relu_sse2,
    max_pool2x2_sse2,
    array_sum_sse2,
    squared_distance_sse2,
    squared_distance_row_sse2,
    dot_sse2,
    dot_f64_sse2,
    l1_distance_sse2,
#else
    simd_detail::gemm_micro_generic,
    simd_detail::gemm_nt_rows_generic,
    simd_detail::conv_direct_generic,
    simd_detail::im2col_shared,
    simd_detail::col2im_generic,
    simd_detail::add_scalar_generic,
    simd_detail::bn_relu_generic,
    simd_detail::relu_generic,
    simd_detail::max_pool2x2_generic,
    simd_detail::array_sum_generic,
    simd_detail::squared_distance_generic,
    simd_detail::squared_distance_row_generic,
    simd_detail::dot_generic,
    simd_detail::dot_f64_generic,
    simd_detail::l1_distance_generic,
#endif
};

}  // namespace dv
