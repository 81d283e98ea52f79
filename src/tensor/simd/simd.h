// SIMD kernel layer: runtime-dispatched vector variants of the hot loops
// (GEMM micro-kernel and row kernel, direct convolution, im2col/col2im,
// ReLU and 2x2 max-pool, distance/dot/sum reductions).
//
// A one-time cpuid probe (util/cpuid.h) selects the widest supported table
// at startup; `DV_SIMD` (`scalar|sse2|avx2|auto`) overrides the choice, and
// falls back to the widest supported level at or below the request when the
// host cannot run it. Every variant of every kernel computes *bitwise
// identical* results: element-wise kernels perform the same scalar
// operations per element, and horizontal reductions all use the fixed
// 8-lane accumulation order documented at `simd_reduce_lanes`. Fused
// multiply-add is never used (the AVX2 TU is built with -mfma per the
// build contract, but kernels stick to separate mul+add and all kernel TUs
// compile with -ffp-contract=off) because fusing would round once where
// the scalar path rounds twice. See DESIGN.md §12.
//
// Intrinsics are confined to src/tensor/simd/ (enforced by the dv_lint
// `simd` check); everything else calls the table through the wrappers in
// tensor/ops.h.
#pragma once

#include <cstdint>
#include <string_view>

namespace dv {

struct conv_geometry;  // tensor/ops.h

/// Dispatch levels, ordered by vector width. `set_simd_level` accepts any
/// supported level; `auto` (the default) picks the widest supported one.
enum class simd_level : int { scalar = 0, sse2 = 1, avx2 = 2 };

/// GEMM micro-kernel tile shape shared by the packing code in
/// tensor/ops.cpp and every micro-kernel variant.
inline constexpr std::int64_t simd_gemm_mr = 4;
inline constexpr std::int64_t simd_gemm_nr = 16;
/// GEMM k-panel width. Each output element of the tiled GEMM accumulates
/// one chain per panel of this many products, starting at +0, and folds
/// the panel sums in order onto the zeroed output; conv_direct restarts
/// its chains at the same width, which is what makes it bitwise equal to
/// im2col + gemm_nn.
inline constexpr std::int64_t simd_gemm_kc = 256;

/// Fixed lane count for horizontal reductions. Lane l accumulates
/// elements l, l+8, l+16, ... in index order; the remaining (n mod 8)
/// elements accumulate sequentially into a scalar tail; the total is
/// (((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))) + tail. Every ISA implements
/// exactly this chain (scalar: 8 named accumulators; SSE2: 4 x 2 doubles;
/// AVX2: 2 x 4 doubles), which is what makes results bitwise identical
/// across dispatch levels.
inline constexpr std::int64_t simd_reduce_lanes = 8;

/// One ISA's implementations of the hot kernels. All pointers are
/// non-null in every table.
struct simd_kernel_table {
  simd_level level{simd_level::scalar};

  /// acc[mr][nr] += sum_p ap[p*mr + i] * bp[p*nr + j] over one packed K
  /// panel (see pack_a/pack_b in tensor/ops.cpp). Panels are zero-padded
  /// to the full tile, so the kernel always computes all mr x nr elements.
  void (*gemm_micro_kernel)(std::int64_t kc, const float* ap, const float* bp,
                            float* acc){nullptr};

  /// c[i][j] += alpha * panel sum, for i < m and j < n, with a [m, k] and
  /// b [n, k] row-major, read where they lie: the tiled GEMM's chain for
  /// gemm_nt without packing. Per simd_gemm_kc panel, an accumulator
  /// starts at +0 and adds a[i][p] * b[j][p] for p ascending (separate
  /// multiply and add), then folds as c += alpha * acc. The caller has
  /// already scaled c by beta.
  void (*gemm_nt_rows)(std::int64_t m, std::int64_t n, std::int64_t k,
                       float alpha, const float* a, const float* b,
                       float* c){nullptr};

  /// Stride-1, pad-0 convolution of one CHW image straight into
  /// out[out_c, out_h * out_w], weight [out_c, col_rows] (see conv_direct
  /// in tensor/ops.h). Each output element sums its taps p = (c, ky, kx)
  /// in ascending order, restarting the chain every simd_gemm_kc taps.
  void (*conv_direct)(const float* image, const conv_geometry& g,
                      const float* weight, std::int64_t out_c,
                      float* out){nullptr};

  /// Unfolds one CHW image into the [col_rows, col_cols] im2col matrix.
  void (*im2col)(const float* image, const conv_geometry& g,
                 float* col){nullptr};

  /// Adjoint of im2col: accumulates a col matrix into a CHW image.
  void (*col2im)(const float* col, const conv_geometry& g,
                 float* image){nullptr};

  /// x[i] += c for i in [0, n).
  void (*add_scalar)(float* x, std::int64_t n, float c){nullptr};

  /// out[i] = relu(gamma * ((x[i] - mean) * inv_std) + beta) for i in
  /// [0, n), each step rounded to float; NaN and -0 map to +0 (see bn_relu
  /// in tensor/ops.h).
  void (*bn_relu)(const float* x, std::int64_t n, float mean, float inv_std,
                  float gamma, float beta, float* out){nullptr};

  /// out[i] = x[i] > 0 ? x[i] : +0 for i in [0, n), so NaN and -0 map
  /// to +0 (see relu in tensor/ops.h).
  void (*relu)(const float* x, std::int64_t n, float* out){nullptr};

  /// 2x2, stride-2 max-pool of `planes` row-major [h, w] planes into
  /// [h / 2, w / 2] planes (see max_pool2x2 in tensor/ops.h).
  void (*max_pool2x2)(const float* x, std::int64_t planes, std::int64_t h,
                      std::int64_t w, float* out){nullptr};

  /// sum_i x[i] in the 8-lane canonical order.
  double (*array_sum)(const float* x, std::int64_t n){nullptr};

  /// sum_i (a[i]-b[i])^2 in the 8-lane canonical order.
  double (*squared_distance)(const float* a, const float* b,
                             std::int64_t n){nullptr};

  /// out[j] = squared_distance(x, rows + j*d, d) for j in [0, m).
  void (*squared_distance_row)(const float* x, const float* rows,
                               std::int64_t m, std::int64_t d,
                               double* out){nullptr};

  /// sum_i a[i]*b[i] in the 8-lane canonical order.
  double (*dot)(const float* a, const float* b, std::int64_t n){nullptr};

  /// Double-precision dot product in the 8-lane canonical order.
  double (*dot_f64)(const double* a, const double* b,
                    std::int64_t n){nullptr};

  /// sum_i |a[i]-b[i]| in the 8-lane canonical order.
  double (*l1_distance)(const float* a, const float* b,
                        std::int64_t n){nullptr};
};

/// The active dispatch table (atomic load; resolved from cpuid + DV_SIMD
/// on first use).
const simd_kernel_table& simd_kernels();

/// Level of the active table.
simd_level active_simd_level();

/// True when `level` can run on this host *and* was compiled in.
bool simd_level_supported(simd_level level);

/// Forces the active table (tests and benches use this to sweep the
/// identity matrix in-process). Throws std::invalid_argument when the
/// level is not supported on this host.
void set_simd_level(simd_level level);

/// Restores the startup selection (DV_SIMD or auto).
void reset_simd_level();

/// "scalar", "sse2", or "avx2".
std::string_view simd_level_name(simd_level level);

}  // namespace dv
