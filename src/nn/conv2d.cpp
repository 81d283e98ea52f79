#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "nn/layers.h"
#include "tensor/ops.h"
#include "util/trace.h"
#include "util/thread_pool.h"

namespace dv {

namespace {

/// Samples per parallel chunk. Fixed (never derived from the thread count)
/// so the per-chunk gradient partials reduce in the same order for any
/// DV_THREADS setting.
constexpr std::int64_t k_sample_grain = 4;

/// This thread's scratch buffer, resized to `size` floats. Scratch is per
/// thread rather than per layer, so the const inference forward writes no
/// member and concurrent slices of one model never share a buffer.
/// Contents never reach a result: staging, im2col and the beta = 0 GEMM
/// overwrite every element before it is read.
float* thread_scratch(std::vector<float>& buf, std::int64_t size) {
  buf.resize(static_cast<std::size_t>(size));
  return buf.data();
}

/// Copies one CHW sample of geometry `g` into `dst` as
/// [in_c, in_h + 2 pad, in_w + 2 pad] with a zero border: the image
/// conv_direct reads in place of im2col's zero columns.
void stage_padded(const float* x, const conv_geometry& g, float* dst) {
  const std::int64_t pad = g.pad;
  const std::int64_t row = g.in_w + 2 * pad;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    std::fill_n(dst, pad * row, 0.0f);
    dst += pad * row;
    for (std::int64_t y = 0; y < g.in_h; ++y, x += g.in_w, dst += row) {
      std::fill_n(dst, pad, 0.0f);
      std::copy_n(x, g.in_w, dst + pad);
      std::fill_n(dst + pad + g.in_w, pad, 0.0f);
    }
    std::fill_n(dst, pad * row, 0.0f);
    dst += pad * row;
  }
}

}  // namespace

conv2d::conv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, rng& gen, bool bias)
    : in_c_{in_c},
      out_c_{out_c},
      kernel_{kernel},
      stride_{stride},
      pad_{pad},
      has_bias_{bias} {
  if (in_c <= 0 || out_c <= 0 || kernel <= 0 || stride <= 0 || pad < 0) {
    throw std::invalid_argument{"conv2d: invalid geometry"};
  }
  const std::int64_t fan_in = in_c * kernel * kernel;
  const float std = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight_ = tensor::randn({out_c, fan_in}, gen, std);
  dweight_ = tensor::zeros({out_c, fan_in});
  if (has_bias_) {
    bias_ = tensor::zeros({out_c});
    dbias_ = tensor::zeros({out_c});
  }
}

tensor conv2d::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.conv2d.forward"};
  if (x.dim() != 4 || x.extent(1) != in_c_) {
    throw std::invalid_argument{"conv2d::forward: expected [N," +
                                std::to_string(in_c_) + ",H,W], got " +
                                x.shape_string()};
  }
  const conv_geometry g{in_c_, x.extent(2), x.extent(3), kernel_, stride_,
                        pad_};
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument{"conv2d::forward: output collapses to zero"};
  }
  const std::int64_t n = x.extent(0);
  tensor out{{n, out_c_, oh, ow}};
  const std::int64_t in_stride = in_c_ * g.in_h * g.in_w;
  const std::int64_t out_stride = out_c_ * oh * ow;
  // A stride-1 conv runs conv_direct on the sample, or on a staged copy
  // that carries the zero border; a strided one unfolds the sample with
  // im2col for the GEMM. Both give the bits of im2col + gemm_nn.
  const bool direct = stride_ == 1;
  const conv_geometry staged{in_c_, g.in_h + 2 * pad_, g.in_w + 2 * pad_,
                             kernel_, 1, 0};
  std::int64_t scratch = g.col_rows() * g.col_cols();
  if (direct) scratch = pad_ > 0 ? staged.in_c * staged.in_h * staged.in_w : 0;
  // Each sample writes a disjoint slice of `out`, so the batch loop is
  // embarrassingly parallel; only the staging or im2col scratch is
  // per-thread. Thread-local scratch and GEMM panels grow to steady-state
  // size once per thread, then stay warm — the allocation never recurs
  // per sample.
  // dv:parallel-safe(disjoint slices) dv-lint: allow(effect:may_allocate)
  parallel_for(0, n, k_sample_grain, [&](std::int64_t begin, std::int64_t end) {
    thread_local std::vector<float> scratch_buf;
    float* buf = thread_scratch(scratch_buf, scratch);
    for (std::int64_t i = begin; i < end; ++i) {
      const float* sample = x.data() + i * in_stride;
      float* base = out.data() + i * out_stride;
      if (!direct) {
        im2col(sample, g, buf);
        gemm_nn(out_c_, g.col_cols(), g.col_rows(), 1.0f, weight_.data(), buf,
                0.0f, base);
      } else if (pad_ > 0) {
        stage_padded(sample, g, buf);
        conv_direct(buf, staged, weight_.data(), out_c_, base);
      } else {
        conv_direct(sample, staged, weight_.data(), out_c_, base);
      }
      if (has_bias_) {
        for (std::int64_t c = 0; c < out_c_; ++c) {
          add_scalar(base + c * oh * ow, oh * ow, bias_[c]);
        }
      }
    }
  });
  record_probe(out, probes);
  return out;
}

tensor conv2d::forward(const tensor& x, bool /*training*/) {
  tensor out = infer(x, nullptr);
  input_ = x;
  return out;
}

tensor conv2d::backward(const tensor& grad_out) {
  trace_span span{"nn.conv2d.backward"};
  const conv_geometry g{in_c_, input_.extent(2), input_.extent(3), kernel_,
                        stride_, pad_};
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t n = input_.extent(0);
  if (grad_out.dim() != 4 || grad_out.extent(0) != n ||
      grad_out.extent(1) != out_c_ || grad_out.extent(2) != oh ||
      grad_out.extent(3) != ow) {
    throw std::invalid_argument{"conv2d::backward: grad shape mismatch"};
  }
  tensor grad_in{input_.shape()};
  const std::int64_t in_stride = in_c_ * g.in_h * g.in_w;
  const std::int64_t out_stride = out_c_ * oh * ow;
  // grad_in slices are disjoint per sample; dweight_/dbias_ are reductions.
  // Each chunk accumulates into its own partial, and the partials are
  // folded in ascending chunk order below — the chunk decomposition
  // depends only on (n, grain), so the sum order (and the bit pattern of
  // the result) is identical for every thread count. With a single chunk
  // the partials are skipped and gradients accumulate in place.
  const std::int64_t num_chunks = parallel_chunk_count(0, n, k_sample_grain);
  std::vector<tensor> dw_partial, db_partial;
  if (num_chunks > 1) {
    dw_partial.resize(static_cast<std::size_t>(num_chunks));
    if (has_bias_) db_partial.resize(static_cast<std::size_t>(num_chunks));
  }
  // Thread-local im2col/GEMM panels grow to steady-state size once per
  // thread, then stay warm — the allocation never recurs per sample.
  // dv:parallel-safe(per-chunk partials) dv-lint: allow(effect:may_allocate)
  parallel_for_chunks(
      0, n, k_sample_grain,
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end, int) {
        thread_local std::vector<float> col_buf;
        thread_local std::vector<float> dcol_buf;
        const std::int64_t col_size = g.col_rows() * g.col_cols();
        float* col = thread_scratch(col_buf, col_size);
        float* dcol = thread_scratch(dcol_buf, col_size);
        float* dw = dweight_.data();
        float* db = has_bias_ ? dbias_.data() : nullptr;
        if (num_chunks > 1) {
          auto& dwp = dw_partial[static_cast<std::size_t>(chunk)];
          dwp = tensor::zeros(dweight_.shape());
          dw = dwp.data();
          if (has_bias_) {
            auto& dbp = db_partial[static_cast<std::size_t>(chunk)];
            dbp = tensor::zeros(dbias_.shape());
            db = dbp.data();
          }
        }
        for (std::int64_t i = begin; i < end; ++i) {
          const float* go = grad_out.data() + i * out_stride;
          // dW += dY * col^T  — recompute col for this sample.
          im2col(input_.data() + i * in_stride, g, col);
          gemm_nt(out_c_, g.col_rows(), g.col_cols(), 1.0f, go, col, 1.0f,
                  dw);
          // dcol = W^T * dY, then scatter back to the image.
          gemm_tn(g.col_rows(), g.col_cols(), out_c_, 1.0f, weight_.data(),
                  go, 0.0f, dcol);
          col2im(dcol, g, grad_in.data() + i * in_stride);
          if (has_bias_) {
            for (std::int64_t c = 0; c < out_c_; ++c) {
              db[c] += static_cast<float>(array_sum(go + c * oh * ow,
                                                    oh * ow));
            }
          }
        }
      });
  if (num_chunks > 1) {
    for (std::int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      dweight_ += dw_partial[static_cast<std::size_t>(chunk)];
      if (has_bias_) dbias_ += db_partial[static_cast<std::size_t>(chunk)];
    }
  }
  return grad_in;
}

std::vector<param_ref> conv2d::params() {
  std::vector<param_ref> out{{&weight_, &dweight_, "weight"}};
  if (has_bias_) out.push_back({&bias_, &dbias_, "bias"});
  return out;
}

std::string conv2d::describe() const {
  std::ostringstream out;
  out << "conv2d(" << out_c_ << " filters " << kernel_ << "x" << kernel_
      << ", stride " << stride_ << ", pad " << pad_ << ")";
  return out.str();
}

}  // namespace dv
