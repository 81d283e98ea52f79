#include "nn/probe_reducer.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace dv {

namespace {
/// Rows per parallel chunk. An inference slice (sequential::infer reduces
/// its probes per slice of 4 rows) stays one chunk, where waking the pool
/// would cost more than the reduction; a raw 128-row batch reduced
/// afterwards (activation_batch::probe_features) spreads over four.
constexpr std::int64_t k_rows_per_chunk = 32;
}  // namespace

tensor reduce_probe(const tensor& probe, int spatial) {
  if (spatial < 1) throw std::invalid_argument{"reduce_probe: spatial >= 1"};
  if (probe.dim() == 2) return probe;
  if (probe.dim() != 4) {
    throw std::invalid_argument{"reduce_probe: expected 2-D or 4-D probe"};
  }
  const std::int64_t n = probe.extent(0), c = probe.extent(1),
                     h = probe.extent(2), w = probe.extent(3);
  const std::int64_t s =
      std::min<std::int64_t>(spatial, std::min(h, w));
  tensor out{{n, c * s * s}};
  // Rows reduce independently into disjoint output rows.
  // dv:parallel-safe(disjoint rows)
  parallel_for(0, n, k_rows_per_chunk, [&](std::int64_t begin,
                                           std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      float* dst = out.data() + i * c * s * s;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float* plane = probe.data() + (i * c + ch) * h * w;
        for (std::int64_t by = 0; by < s; ++by) {
          const std::int64_t y0 = by * h / s;
          const std::int64_t y1 = (by + 1) * h / s;
          for (std::int64_t bx = 0; bx < s; ++bx) {
            const std::int64_t x0 = bx * w / s;
            const std::int64_t x1 = (bx + 1) * w / s;
            // Row sums batch through the SIMD kernel; the y fold stays
            // sequential, so the block mean is deterministic per level.
            double acc = 0.0;
            for (std::int64_t y = y0; y < y1; ++y) {
              acc += array_sum(plane + y * w + x0, x1 - x0);
            }
            const auto count = static_cast<double>((y1 - y0) * (x1 - x0));
            dst[(ch * s + by) * s + bx] =
                static_cast<float>(count > 0 ? acc / count : 0.0);
          }
        }
      }
    }
  });
  return out;
}

std::int64_t reduced_dimension(const std::vector<std::int64_t>& probe_shape,
                               int spatial) {
  if (probe_shape.size() == 2) return probe_shape[1];
  if (probe_shape.size() != 4) {
    throw std::invalid_argument{"reduced_dimension: bad probe shape"};
  }
  const std::int64_t s = std::min<std::int64_t>(
      spatial, std::min(probe_shape[2], probe_shape[3]));
  return probe_shape[1] * s * s;
}

}  // namespace dv
