#include <limits>
#include <sstream>
#include <stdexcept>

#include "nn/layers.h"
#include "tensor/ops.h"
#include "util/trace.h"

namespace dv {

max_pool2d::max_pool2d(std::int64_t window) : window_{window} {
  if (window <= 1) throw std::invalid_argument{"max_pool2d: window must be >1"};
}

namespace {

/// The max-pool output for input `x`: [N, C, H / window, W / window].
tensor max_pool_output(const tensor& x, std::int64_t window) {
  if (x.dim() != 4) throw std::invalid_argument{"max_pool2d: expected 4-D"};
  const std::int64_t oh = x.extent(2) / window, ow = x.extent(3) / window;
  if (oh == 0 || ow == 0) {
    throw std::invalid_argument{"max_pool2d: input smaller than window"};
  }
  return tensor{{x.extent(0), x.extent(1), oh, ow}};
}

/// Max over each window, scanning the window row by row and keeping the
/// first strict maximum. Stores each maximum's flat input index in
/// `argmax` when non-null (the training forward's backward cache).
tensor max_pool(const tensor& x, std::int64_t window,
                std::vector<std::int64_t>* argmax) {
  tensor out = max_pool_output(x, window);
  const std::int64_t c = x.extent(1), h = x.extent(2), w = x.extent(3);
  const std::int64_t n = out.extent(0), oh = out.extent(2), ow = out.extent(3);
  if (argmax != nullptr) {
    argmax->assign(static_cast<std::size_t>(out.numel()), 0);
  }
  std::int64_t oi = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (std::int64_t ky = 0; ky < window; ++ky) {
            const std::int64_t iy = oy * window + ky;
            for (std::int64_t kx = 0; kx < window; ++kx) {
              const std::int64_t ix = ox * window + kx;
              const std::int64_t idx = iy * w + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          out[oi] = best;
          if (argmax != nullptr) {
            (*argmax)[static_cast<std::size_t>(oi)] =
                (i * c + ch) * h * w + best_idx;
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

tensor max_pool2d::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.max_pool2d.forward"};
  tensor out;
  if (window_ == 2) {
    // The same scan and the same keep-the-first-strict-maximum rule,
    // branch-free.
    out = max_pool_output(x, window_);
    max_pool2x2(x.data(), x.extent(0) * x.extent(1), x.extent(2),
                x.extent(3), out.data());
  } else {
    out = max_pool(x, window_, nullptr);
  }
  record_probe(out, probes);
  return out;
}

tensor max_pool2d::forward(const tensor& x, bool /*training*/) {
  trace_span span{"nn.max_pool2d.forward"};
  input_shape_ = x.shape();
  return max_pool(x, window_, &argmax_);
}

tensor max_pool2d::backward(const tensor& grad_out) {
  if (static_cast<std::size_t>(grad_out.numel()) != argmax_.size()) {
    throw std::invalid_argument{"max_pool2d::backward: shape mismatch"};
  }
  tensor grad_in{input_shape_};
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[argmax_[static_cast<std::size_t>(i)]] += grad_out[i];
  }
  return grad_in;
}

std::string max_pool2d::describe() const {
  std::ostringstream out;
  out << "max_pool2d(" << window_ << "x" << window_ << ")";
  return out.str();
}

tensor global_avg_pool::infer(const tensor& x,
                              std::vector<tensor>* probes) const {
  trace_span span{"nn.global_avg_pool.forward"};
  if (x.dim() != 4) throw std::invalid_argument{"global_avg_pool: expected 4-D"};
  const std::int64_t n = x.extent(0), c = x.extent(1);
  const std::int64_t plane = x.extent(2) * x.extent(3);
  tensor out{{n, c}};
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* p = x.data() + (i * c + ch) * plane;
      double acc = 0.0;
      for (std::int64_t j = 0; j < plane; ++j) acc += p[j];
      out.at2(i, ch) = static_cast<float>(acc / static_cast<double>(plane));
    }
  }
  record_probe(out, probes);
  return out;
}

tensor global_avg_pool::forward(const tensor& x, bool /*training*/) {
  tensor out = infer(x, nullptr);
  input_shape_ = x.shape();
  return out;
}

tensor global_avg_pool::backward(const tensor& grad_out) {
  const std::int64_t n = input_shape_[0], c = input_shape_[1];
  const std::int64_t plane = input_shape_[2] * input_shape_[3];
  if (grad_out.dim() != 2 || grad_out.extent(0) != n ||
      grad_out.extent(1) != c) {
    throw std::invalid_argument{"global_avg_pool::backward: shape mismatch"};
  }
  tensor grad_in{input_shape_};
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.at2(i, ch) * inv;
      float* p = grad_in.data() + (i * c + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) p[j] = g;
    }
  }
  return grad_in;
}

avg_pool2d::avg_pool2d(std::int64_t window) : window_{window} {
  if (window <= 1) throw std::invalid_argument{"avg_pool2d: window must be >1"};
}

tensor avg_pool2d::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.avg_pool2d.forward"};
  if (x.dim() != 4) throw std::invalid_argument{"avg_pool2d: expected 4-D"};
  const std::int64_t n = x.extent(0), c = x.extent(1), h = x.extent(2),
                     w = x.extent(3);
  const std::int64_t oh = h / window_, ow = w / window_;
  if (oh == 0 || ow == 0) {
    throw std::invalid_argument{"avg_pool2d: input smaller than window"};
  }
  tensor out{{n, c, oh, ow}};
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      float* oplane = out.data() + (i * c + ch) * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::int64_t ky = 0; ky < window_; ++ky) {
            for (std::int64_t kx = 0; kx < window_; ++kx) {
              acc += plane[(oy * window_ + ky) * w + ox * window_ + kx];
            }
          }
          oplane[oy * ow + ox] = acc * inv;
        }
      }
    }
  }
  record_probe(out, probes);
  return out;
}

tensor avg_pool2d::forward(const tensor& x, bool /*training*/) {
  tensor out = infer(x, nullptr);
  input_shape_ = x.shape();
  return out;
}

tensor avg_pool2d::backward(const tensor& grad_out) {
  const std::int64_t n = input_shape_[0], c = input_shape_[1],
                     h = input_shape_[2], w = input_shape_[3];
  const std::int64_t oh = h / window_, ow = w / window_;
  if (grad_out.dim() != 4 || grad_out.extent(0) != n ||
      grad_out.extent(1) != c || grad_out.extent(2) != oh ||
      grad_out.extent(3) != ow) {
    throw std::invalid_argument{"avg_pool2d::backward: shape mismatch"};
  }
  tensor grad_in{input_shape_};
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* gplane = grad_out.data() + (i * c + ch) * oh * ow;
      float* plane = grad_in.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const float g = gplane[oy * ow + ox] * inv;
          for (std::int64_t ky = 0; ky < window_; ++ky) {
            for (std::int64_t kx = 0; kx < window_; ++kx) {
              plane[(oy * window_ + ky) * w + ox * window_ + kx] += g;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

std::string avg_pool2d::describe() const {
  std::ostringstream out;
  out << "avg_pool2d(" << window_ << "x" << window_ << ")";
  return out.str();
}

}  // namespace dv
