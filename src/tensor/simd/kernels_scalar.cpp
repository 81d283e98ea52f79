// Scalar dispatch table: the canonical reference implementations. Always
// built, selected on hosts without SSE2/AVX2 or via DV_SIMD=scalar.
#include "tensor/simd/kernels_generic.h"
#include "tensor/simd/simd.h"

namespace dv {

extern const simd_kernel_table k_simd_table_scalar;

const simd_kernel_table k_simd_table_scalar = {
    simd_level::scalar,
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
};

}  // namespace dv
