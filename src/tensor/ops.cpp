#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/simd/simd.h"
#include "util/thread_pool.h"

namespace dv {

namespace {

// Cache-tiled, register-blocked GEMM (GotoBLAS-style). All three public
// variants funnel into one core that multiplies A'[M,K] * B'[K,N] where A'
// and B' are read through packing routines that absorb the transpositions.
//
// Blocking: K is split into KC panels, N into NC panels. Per (NC, KC)
// panel, B is packed once into NR-wide column strips; the M dimension is
// then processed in MR-row strips, parallelized over row-block chunks.
// Each thread packs the A rows of its chunk and runs the MR x NR
// micro-kernel, which keeps the full accumulator tile in registers.
//
// Determinism: the k-accumulation order for every C element is fixed by
// the (pc, p) loop structure and row blocks write disjoint C rows, so the
// result is bit-identical for any thread count. The micro-kernel comes
// from the SIMD dispatch table (tensor/simd/simd.h); every variant keeps
// each element's accumulation chain sequential in p and never fuses
// mul+add, so the result is also bit-identical for any DV_SIMD level.
constexpr std::int64_t MR = simd_gemm_mr;  // micro-kernel rows
constexpr std::int64_t NR = simd_gemm_nr;  // micro-kernel columns
constexpr std::int64_t KC = simd_gemm_kc;  // k panel
constexpr std::int64_t NC = 512;  // n panel
// Row-blocks per parallel chunk (32 rows): big enough to amortize
// dispatch, small enough to load-balance mid-sized matrices.
constexpr std::int64_t ROW_BLOCK_GRAIN = 8;
// Below this per-row flop count the packing overhead dominates; use the
// simple kernels. The cutoff deliberately ignores the row count m: the
// row dimension is the batch axis in the dense/conv GEMMs, and keying the
// path on n*k alone keeps each row's summation order — and therefore each
// sample's bit pattern — independent of how many samples share the batch.
constexpr std::int64_t TILED_MIN_ROW_FLOPS = 2 * 24 * 24;

/// C = beta * C, handling beta == 0 without reading C (it may hold NaNs).
void scale_c(std::int64_t m, std::int64_t n, float beta, float* c) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
    return;
  }
  for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
}

/// Packs B[pc:pc+kc, jc:jc+nc] (logical [K, N] view; transposed reads b
/// stored [N, K]) into NR-wide strips, zero-padding the last strip:
/// panel[((j0 / NR) * kc + p) * NR + jr] = B[pc + p, jc + j0 + jr].
void pack_b(const float* b, bool b_trans, std::int64_t ldb, std::int64_t pc,
            std::int64_t jc, std::int64_t kc, std::int64_t nc, float* panel) {
  for (std::int64_t j0 = 0; j0 < nc; j0 += NR) {
    const std::int64_t w = std::min(NR, nc - j0);
    float* dst = panel + (j0 / NR) * kc * NR;
    for (std::int64_t p = 0; p < kc; ++p, dst += NR) {
      if (b_trans) {
        const float* src = b + (jc + j0) * ldb + (pc + p);
        for (std::int64_t jr = 0; jr < w; ++jr) dst[jr] = src[jr * ldb];
      } else {
        const float* src = b + (pc + p) * ldb + (jc + j0);
        for (std::int64_t jr = 0; jr < w; ++jr) dst[jr] = src[jr];
      }
      for (std::int64_t jr = w; jr < NR; ++jr) dst[jr] = 0.0f;
    }
  }
}

/// Packs A[ic:ic+mc, pc:pc+kc] (logical [M, K] view; transposed reads a
/// stored [K, M]) into MR-row strips, zero-padding the last strip:
/// panel[((i0 / MR) * kc + p) * MR + ir] = A[ic + i0 + ir, pc + p].
void pack_a(const float* a, bool a_trans, std::int64_t lda, std::int64_t ic,
            std::int64_t pc, std::int64_t mc, std::int64_t kc, float* panel) {
  for (std::int64_t i0 = 0; i0 < mc; i0 += MR) {
    const std::int64_t h = std::min(MR, mc - i0);
    float* dst = panel + (i0 / MR) * kc * MR;
    for (std::int64_t p = 0; p < kc; ++p, dst += MR) {
      if (a_trans) {
        const float* src = a + (pc + p) * lda + (ic + i0);
        for (std::int64_t ir = 0; ir < h; ++ir) dst[ir] = src[ir];
      } else {
        const float* src = a + (ic + i0) * lda + (pc + p);
        for (std::int64_t ir = 0; ir < h; ++ir) dst[ir] = src[ir * lda];
      }
      for (std::int64_t ir = h; ir < MR; ++ir) dst[ir] = 0.0f;
    }
  }
}

void gemm_tiled(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, bool a_trans, const float* b, bool b_trans,
                float beta, float* c) {
  scale_c(m, n, beta, c);
  if (alpha == 0.0f || k == 0) return;
  const std::int64_t lda = a_trans ? m : k;
  const std::int64_t ldb = b_trans ? k : n;
  // One table fetch per GEMM: the micro-kernel variant cannot change
  // mid-call even if another thread flips the dispatch level.
  const auto micro_kernel = simd_kernels().gemm_micro_kernel;
  // The packed B panel lives in the calling thread's buffer, which grows
  // once per thread instead of being allocated per call. The region's
  // workers read it through `b_panel` (a thread_local named inside the
  // lambda would be each worker's own buffer).
  thread_local std::vector<float> b_panel_buf;
  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    const std::int64_t nc_strips = (nc + NR - 1) / NR;
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      b_panel_buf.resize(static_cast<std::size_t>(nc_strips * kc * NR));
      const float* const b_panel = b_panel_buf.data();
      pack_b(b, b_trans, ldb, pc, jc, kc, nc, b_panel_buf.data());
      const std::int64_t row_blocks = (m + MR - 1) / MR;
      // The thread_local A-panel grows to steady-state size once per
      // thread, then stays warm across row blocks.
      // dv:parallel-safe(disjoint C tiles) dv-lint: allow(effect:may_allocate)
      parallel_for(0, row_blocks, ROW_BLOCK_GRAIN, [&](std::int64_t rb_begin,
                                                       std::int64_t rb_end) {
        thread_local std::vector<float> a_panel;
        const std::int64_t ic = rb_begin * MR;
        const std::int64_t mc = std::min(m, rb_end * MR) - ic;
        const std::int64_t mc_strips = (mc + MR - 1) / MR;
        a_panel.resize(static_cast<std::size_t>(mc_strips * kc * MR));
        pack_a(a, a_trans, lda, ic, pc, mc, kc, a_panel.data());
        alignas(64) float acc[MR * NR];
        for (std::int64_t i0 = 0; i0 < mc; i0 += MR) {
          const std::int64_t h = std::min(MR, mc - i0);
          const float* ap = a_panel.data() + (i0 / MR) * kc * MR;
          for (std::int64_t j0 = 0; j0 < nc; j0 += NR) {
            const std::int64_t w = std::min(NR, nc - j0);
            std::memset(acc, 0, sizeof(acc));
            micro_kernel(kc, ap, b_panel + (j0 / NR) * kc * NR, acc);
            for (std::int64_t ir = 0; ir < h; ++ir) {
              float* crow = c + (ic + i0 + ir) * n + jc + j0;
              for (std::int64_t jr = 0; jr < w; ++jr) {
                crow[jr] += alpha * acc[ir * NR + jr];
              }
            }
          }
        }
      });
    }
  }
}

/// Simple kernels for problems too small to amortize packing.
void gemm_small(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, bool a_trans, const float* b, bool b_trans,
                float beta, float* c) {
  scale_c(m, n, beta, c);
  if (alpha == 0.0f || k == 0) return;
  // Rows are independent (disjoint writes, fixed inner order), so the
  // row loop parallelizes bit-identically for any thread count.
  // dv:parallel-safe(disjoint C rows, fixed inner order)
  parallel_for(0, m, 64, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      float* crow = c + i * n;
      if (b_trans) {
        for (std::int64_t j = 0; j < n; ++j) {
          const float* brow = b + j * k;
          float acc = 0.0f;
          for (std::int64_t p = 0; p < k; ++p) {
            acc += (a_trans ? a[p * m + i] : a[i * k + p]) * brow[p];
          }
          crow[j] += alpha * acc;
        }
      } else {
        for (std::int64_t p = 0; p < k; ++p) {
          const float av = alpha * (a_trans ? a[p * m + i] : a[i * k + p]);
          const float* brow = b + p * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  });
}

/// gemm_nt with at most one micro-kernel strip of rows (dense::infer at
/// batch 1-4, and in every 4-row slice of a batched forward): the row
/// kernel reads B's rows where they lie and runs each element's tiled
/// chain, so no B panel is packed and no zero-padded A row is multiplied.
/// Serial: at these sizes a pool region costs more than it saves.
void gemm_rows(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) {
  scale_c(m, n, beta, c);
  if (alpha == 0.0f || k == 0) return;
  simd_kernels().gemm_nt_rows(m, n, k, alpha, a, b, c);
}

void gemm_dispatch(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                   const float* a, bool a_trans, const float* b, bool b_trans,
                   float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  // The row count may pick the row kernel only because it gives every
  // row the tiled path's bits (DESIGN.md §8).
  if (2 * n * k < TILED_MIN_ROW_FLOPS) {
    gemm_small(m, n, k, alpha, a, a_trans, b, b_trans, beta, c);
  } else if (b_trans && !a_trans && m <= MR) {
    gemm_rows(m, n, k, alpha, a, b, beta, c);
  } else {
    gemm_tiled(m, n, k, alpha, a, a_trans, b, b_trans, beta, c);
  }
}

}  // namespace

void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c) {
  gemm_dispatch(m, n, k, alpha, a, false, b, false, beta, c);
}

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c) {
  gemm_dispatch(m, n, k, alpha, a, false, b, true, beta, c);
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c) {
  gemm_dispatch(m, n, k, alpha, a, true, b, false, beta, c);
}

void im2col(const float* image, const conv_geometry& g, float* col) {
  simd_kernels().im2col(image, g, col);
}

void conv_direct(const float* image, const conv_geometry& g,
                 const float* weight, std::int64_t out_c, float* out) {
  if (g.stride != 1 || g.pad != 0) {
    throw std::invalid_argument{"conv_direct: needs stride 1 and pad 0"};
  }
  const std::int64_t n = g.col_cols();
  const std::int64_t k = g.col_rows();
  if (out_c <= 0 || n <= 0) return;
  // Below the tiling cutoff gemm_nn runs one unbroken chain per element,
  // which differs from the panel chain only when k spans two panels: an
  // image of at most two output pixels. Those take the GEMM itself.
  if (2 * n * k < TILED_MIN_ROW_FLOPS && k > KC) {
    thread_local std::vector<float> col;
    col.resize(static_cast<std::size_t>(n * k));
    im2col(image, g, col.data());
    gemm_nn(out_c, n, k, 1.0f, weight, col.data(), 0.0f, out);
    return;
  }
  simd_kernels().conv_direct(image, g, weight, out_c, out);
}

void col2im(const float* col, const conv_geometry& g, float* image) {
  simd_kernels().col2im(col, g, image);
}

void softmax_rows(tensor& logits) {
  if (logits.dim() != 2) throw std::invalid_argument{"softmax_rows: not 2-D"};
  const std::int64_t rows = logits.extent(0);
  const std::int64_t cols = logits.extent(1);
  float* data = logits.data();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = data + i * cols;
    const float m = *std::max_element(row, row + cols);
    double sum = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - m);
      sum += row[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

std::vector<std::int64_t> argmax_rows(const tensor& t) {
  if (t.dim() != 2) throw std::invalid_argument{"argmax_rows: not 2-D"};
  const std::int64_t rows = t.extent(0);
  const std::int64_t cols = t.extent(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* row = t.data() + i * cols;
    out[static_cast<std::size_t>(i)] =
        std::max_element(row, row + cols) - row;
  }
  return out;
}

double squared_distance(const float* a, const float* b, std::int64_t n) {
  return simd_kernels().squared_distance(a, b, n);
}

void squared_distance_row(const float* x, const float* rows, std::int64_t m,
                          std::int64_t d, double* out) {
  simd_kernels().squared_distance_row(x, rows, m, d, out);
}

double dot(const float* a, const float* b, std::int64_t n) {
  return simd_kernels().dot(a, b, n);
}

double dot_f64(const double* a, const double* b, std::int64_t n) {
  return simd_kernels().dot_f64(a, b, n);
}

double l1_distance(const float* a, const float* b, std::int64_t n) {
  return simd_kernels().l1_distance(a, b, n);
}

double array_sum(const float* x, std::int64_t n) {
  return simd_kernels().array_sum(x, n);
}

void add_scalar(float* x, std::int64_t n, float c) {
  simd_kernels().add_scalar(x, n, c);
}

void bn_relu(const float* x, std::int64_t n, float mean, float inv_std,
             float gamma, float beta, float* out) {
  simd_kernels().bn_relu(x, n, mean, inv_std, gamma, beta, out);
}

void relu_array(const float* x, std::int64_t n, float* out) {
  simd_kernels().relu(x, n, out);
}

void max_pool2x2(const float* x, std::int64_t planes, std::int64_t h,
                 std::int64_t w, float* out) {
  simd_kernels().max_pool2x2(x, planes, h, w, out);
}

}  // namespace dv
