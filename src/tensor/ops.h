// Numerical kernels on raw tensors: GEMM, im2col/col2im, softmax, and the
// distance/dot/sum reductions shared by the SVM and detector layers.
//
// These are the hot loops behind the neural-network substrate. All matrices
// are row-major. The GEMM variants are cache-tiled and register-blocked
// (packed A/B panels, MR x NR micro-kernel) and parallelized over row
// blocks through the shared thread pool (util/thread_pool.h). Results are
// bit-identical for any DV_THREADS setting: row blocks write disjoint rows
// of C and the k-accumulation order is fixed by the panel loop structure.
//
// The inner loops (micro-kernel, row kernel, direct convolution,
// im2col/col2im, ReLU, max-pool, reductions) route through the
// runtime-dispatched SIMD table in tensor/simd/simd.h; results are
// additionally bit-identical for any DV_SIMD level because every variant
// runs the same per-element operations and the same fixed 8-lane
// reduction order (see `simd_reduce_lanes`).
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace dv {

/// C[M,N] = alpha * A[M,K] * B[K,N] + beta * C.
void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c);

/// C[M,N] = alpha * A[M,K] * B[N,K]^T + beta * C (B stored row-major [N,K]).
/// At most simd_gemm_mr rows run the SIMD row kernel, which reads B in
/// place and gives each row the bits the tiled GEMM gives it.
void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c);

/// C[M,N] = alpha * A[K,M]^T * B[K,N] + beta * C (A stored row-major [K,M]).
void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c);

/// Geometry of a 2-D convolution / pooling window.
struct conv_geometry {
  std::int64_t in_c{}, in_h{}, in_w{};
  std::int64_t kernel{};   // square kernel size
  std::int64_t stride{1};
  std::int64_t pad{0};

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the im2col matrix: one per (channel, ky, kx).
  std::int64_t col_rows() const { return in_c * kernel * kernel; }
  /// Columns of the im2col matrix: one per output pixel.
  std::int64_t col_cols() const { return out_h() * out_w(); }
};

/// Unfolds one CHW image into the [col_rows, col_cols] im2col matrix.
/// `col` must hold col_rows()*col_cols() floats.
void im2col(const float* image, const conv_geometry& g, float* col);

/// Convolves one CHW image whose zero padding, if any, is already written
/// in (`g` must have stride 1 and pad 0) straight into
/// out[out_c, g.col_cols()], with weight [out_c, g.col_rows()]. Bitwise
/// equal to im2col(image, g, col) then gemm_nn(out_c, g.col_cols(),
/// g.col_rows(), 1, weight, col, 0, out) at every DV_SIMD level, without
/// the col matrix.
void conv_direct(const float* image, const conv_geometry& g,
                 const float* weight, std::int64_t out_c, float* out);

/// Accumulates a col matrix back into a CHW image gradient (adjoint of
/// im2col). `image` must be zeroed by the caller if accumulation from zero is
/// desired.
void col2im(const float* col, const conv_geometry& g, float* image);

/// In-place numerically stable softmax over the last axis of a 2-D tensor.
void softmax_rows(tensor& logits);

/// Row-wise argmax of a 2-D tensor.
std::vector<std::int64_t> argmax_rows(const tensor& t);

/// Squared Euclidean distance between two equal-length float arrays
/// (double accumulators, fixed 8-lane order).
double squared_distance(const float* a, const float* b, std::int64_t n);

/// out[j] = squared_distance(x, rows + j*d, d) for j in [0, m): one query
/// against every row of a row-major [m, d] matrix. Bitwise identical to m
/// separate squared_distance calls.
void squared_distance_row(const float* x, const float* rows, std::int64_t m,
                          std::int64_t d, double* out);

/// Dot product of two equal-length float arrays (double accumulators,
/// fixed 8-lane order).
double dot(const float* a, const float* b, std::int64_t n);

/// Dot product of two equal-length double arrays (fixed 8-lane order).
double dot_f64(const double* a, const double* b, std::int64_t n);

/// L1 distance sum_i |a[i]-b[i]| (double accumulators, fixed 8-lane order).
double l1_distance(const float* a, const float* b, std::int64_t n);

/// Sum of a float array (double accumulators, fixed 8-lane order).
double array_sum(const float* x, std::int64_t n);

/// x[i] += c for i in [0, n).
void add_scalar(float* x, std::int64_t n, float c);

/// out[i] = relu(gamma * ((x[i] - mean) * inv_std) + beta) for i in [0, n):
/// batch_norm::infer's arithmetic then relu::infer's on one row of a
/// channel, each step rounded to float, so NaN and -0 map to +0. `x` and
/// `out` may be the same array.
void bn_relu(const float* x, std::int64_t n, float mean, float inv_std,
             float gamma, float beta, float* out);

/// out[i] = x[i] > 0 ? x[i] : 0 for i in [0, n), without a branch: NaN
/// and -0 map to +0. `x` and `out` may be the same array.
void relu_array(const float* x, std::int64_t n, float* out);

/// 2x2, stride-2 max-pool of `planes` row-major [h, w] planes into
/// [h / 2, w / 2] planes (an odd last row or column is dropped). Each
/// output scans its window row by row from -inf and keeps a value only if
/// it is greater than the best so far, so NaN never wins and the first of
/// equal maxima (+0 or -0) is kept.
void max_pool2x2(const float* x, std::int64_t planes, std::int64_t h,
                 std::int64_t w, float* out);

}  // namespace dv
