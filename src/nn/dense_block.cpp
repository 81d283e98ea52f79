#include "nn/dense_block.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "tensor/ops.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace dv {

namespace {

/// Samples per parallel chunk: fixed, as in conv2d, so the chunking never
/// depends on DV_THREADS (each sample's result does not either).
constexpr std::int64_t k_sample_grain = 4;

/// The inference constants of one BN -> ReLU -> conv composite, gathered
/// once per infer() call.
struct fused_composite {
  std::vector<float> mean, inv_std;
  const float* gamma{};
  const float* beta{};
  /// Conv weight [out_c, in_c * kernel * kernel]; the conv has no bias.
  const float* weight{};
  std::int64_t in_c{}, out_c{}, kernel{};
};

fused_composite fuse(const batch_norm& bn, const conv2d& conv,
                     std::int64_t kernel) {
  fused_composite f;
  bn.running_stats(f.mean, f.inv_std);
  f.gamma = bn.gamma().data();
  f.beta = bn.beta().data();
  f.weight = conv.weight().data();
  f.in_c = conv.in_channels();
  f.out_c = conv.out_channels();
  f.kernel = kernel;
  return f;
}

/// Writes relu(bn(x)) of channels [0, f.in_c) of one [C, h, w] sample into
/// `dst` as [f.in_c, h + 2 pad, w + 2 pad] with a zero border. bn_relu
/// (tensor/ops.h) runs batch_norm::infer's arithmetic then relu::infer's,
/// so the staged values equal what the layer chain feeds conv2d.
void stage_bn_relu(const fused_composite& f, const float* x, std::int64_t h,
                   std::int64_t w, std::int64_t pad, float* dst) {
  const std::int64_t row = w + 2 * pad;
  for (std::int64_t c = 0; c < f.in_c; ++c) {
    const auto ch = static_cast<std::size_t>(c);
    const float m = f.mean[ch], s = f.inv_std[ch];
    const float g = f.gamma[c], b = f.beta[c];
    if (pad == 0) {
      bn_relu(x, h * w, m, s, g, b, dst);
      x += h * w;
      dst += h * w;
      continue;
    }
    std::fill_n(dst, pad * row, 0.0f);
    dst += pad * row;
    for (std::int64_t y = 0; y < h; ++y, x += w, dst += row) {
      std::fill_n(dst, pad, 0.0f);
      bn_relu(x, w, m, s, g, b, dst + pad);
      std::fill_n(dst + pad + w, pad, 0.0f);
    }
    std::fill_n(dst, pad * row, 0.0f);
    dst += pad * row;
  }
}

/// One sample of the composite: stages channels [0, f.in_c) of the
/// [C, h, w] sample `x` into `staged` and convolves them (stride 1, "same"
/// padding) into out[f.out_c, h, w].
void run_fused(const fused_composite& f, const float* x, std::int64_t h,
               std::int64_t w, std::vector<float>& staged, float* out) {
  const std::int64_t pad = f.kernel / 2;
  conv_geometry g{f.in_c, h + 2 * pad, w + 2 * pad, f.kernel, 1, 0};
  // A 1x1 conv reads each plane as one row.
  if (f.kernel == 1) g = conv_geometry{f.in_c, 1, h * w, 1, 1, 0};
  staged.resize(static_cast<std::size_t>(g.in_c * g.in_h * g.in_w));
  stage_bn_relu(f, x, h, w, pad, staged.data());
  conv_direct(staged.data(), g, f.weight, f.out_c, out);
}

}  // namespace

tensor concat_channels(const tensor& a, const tensor& b) {
  if (a.dim() != 4 || b.dim() != 4 || a.extent(0) != b.extent(0) ||
      a.extent(2) != b.extent(2) || a.extent(3) != b.extent(3)) {
    throw std::invalid_argument{"concat_channels: incompatible shapes"};
  }
  const std::int64_t n = a.extent(0), ca = a.extent(1), cb = b.extent(1);
  const std::int64_t plane = a.extent(2) * a.extent(3);
  tensor out{{n, ca + cb, a.extent(2), a.extent(3)}};
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * (ca + cb) * plane, a.data() + i * ca * plane,
                static_cast<std::size_t>(ca * plane) * sizeof(float));
    std::memcpy(out.data() + (i * (ca + cb) + ca) * plane,
                b.data() + i * cb * plane,
                static_cast<std::size_t>(cb * plane) * sizeof(float));
  }
  return out;
}

void split_channels(const tensor& x, std::int64_t c_first, tensor& first,
                    tensor& second) {
  if (x.dim() != 4 || c_first <= 0 || c_first >= x.extent(1)) {
    throw std::invalid_argument{"split_channels: bad arguments"};
  }
  const std::int64_t n = x.extent(0), c = x.extent(1);
  const std::int64_t c_second = c - c_first;
  const std::int64_t plane = x.extent(2) * x.extent(3);
  first = tensor{{n, c_first, x.extent(2), x.extent(3)}};
  second = tensor{{n, c_second, x.extent(2), x.extent(3)}};
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(first.data() + i * c_first * plane, x.data() + i * c * plane,
                static_cast<std::size_t>(c_first * plane) * sizeof(float));
    std::memcpy(second.data() + i * c_second * plane,
                x.data() + (i * c + c_first) * plane,
                static_cast<std::size_t>(c_second * plane) * sizeof(float));
  }
}

dense_unit::dense_unit(std::int64_t in_c, std::int64_t growth, rng& gen)
    : growth_{growth},
      bn_{in_c},
      conv_{in_c, growth, /*kernel=*/3, /*stride=*/1, /*pad=*/1, gen,
            /*bias=*/false} {}

tensor dense_unit::forward(const tensor& x, bool training) {
  tensor h = bn_.forward(x, training);
  h = act_.forward(h, training);
  return conv_.forward(h, training);
}

tensor dense_unit::backward(const tensor& grad_out) {
  tensor g = conv_.backward(grad_out);
  g = act_.backward(g);
  return bn_.backward(g);
}

std::vector<param_ref> dense_unit::params() {
  auto out = bn_.params();
  for (auto& p : conv_.params()) out.push_back(p);
  return out;
}

std::vector<tensor*> dense_unit::state() { return bn_.state(); }

dense_block::dense_block(std::int64_t in_c, std::int64_t growth, int units,
                         rng& gen)
    : in_c_{in_c}, growth_{growth} {
  if (units <= 0) throw std::invalid_argument{"dense_block: units"};
  std::int64_t c = in_c;
  for (int u = 0; u < units; ++u) {
    units_.push_back(std::make_unique<dense_unit>(c, growth, gen));
    c += growth;
  }
  unit_probe_.assign(units_.size(), false);
}

void dense_block::check_input(const tensor& x) const {
  if (x.dim() != 4 || x.extent(1) != in_c_) {
    throw std::invalid_argument{"dense_block::forward: bad input " +
                                x.shape_string()};
  }
}

tensor dense_block::forward(const tensor& x, bool training) {
  check_input(x);
  tensor state = x;
  for (auto& unit : units_) {
    tensor y = unit->forward(state, training);
    state = concat_channels(state, y);
  }
  return state;
}

tensor dense_block::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.dense_block.forward"};
  check_input(x);
  const std::int64_t n = x.extent(0), h = x.extent(2), w = x.extent(3);
  const std::int64_t plane = h * w;
  const std::int64_t total_c = out_channels();
  std::vector<fused_composite> fused;
  fused.reserve(units_.size());
  for (const auto& unit : units_) {
    fused.push_back(fuse(unit->bn(), unit->conv(), 3));
  }
  tensor out{{n, total_c, h, w}};
  // Each sample owns its slice of `out`: the input fills its channel
  // prefix, then every unit reads the channels before its own and writes
  // its growth channels in place. The staging buffer grows to its
  // steady-state size once per thread.
  // dv:parallel-safe(disjoint samples) dv-lint: allow(effect:may_allocate)
  parallel_for(0, n, k_sample_grain, [&](std::int64_t begin, std::int64_t end) {
    thread_local std::vector<float> staged;
    for (std::int64_t i = begin; i < end; ++i) {
      float* sample = out.data() + i * total_c * plane;
      std::memcpy(sample, x.data() + i * in_c_ * plane,
                  static_cast<std::size_t>(in_c_ * plane) * sizeof(float));
      for (const fused_composite& f : fused) {
        run_fused(f, sample, h, w, staged, sample + f.in_c * plane);
      }
    }
  });
  if (probes != nullptr) {
    for (std::size_t u = 0; u < units_.size(); ++u) {
      if (!unit_probe_[u]) continue;
      const std::int64_t first = fused[u].in_c;
      tensor y{{n, growth_, h, w}};
      for (std::int64_t i = 0; i < n; ++i) {
        std::memcpy(y.data() + i * growth_ * plane,
                    out.data() + (i * total_c + first) * plane,
                    static_cast<std::size_t>(growth_ * plane) * sizeof(float));
      }
      probes->push_back(std::move(y));
    }
  }
  record_probe(out, probes);
  return out;
}

tensor dense_block::backward(const tensor& grad_out) {
  const std::int64_t expect_c = out_channels();
  if (grad_out.dim() != 4 || grad_out.extent(1) != expect_c) {
    throw std::invalid_argument{"dense_block::backward: bad grad shape"};
  }
  tensor g = grad_out;
  for (auto it = units_.rbegin(); it != units_.rend(); ++it) {
    tensor g_prev, g_y;
    split_channels(g, g.extent(1) - growth_, g_prev, g_y);
    tensor g_input = (*it)->backward(g_y);
    g_prev += g_input;
    g = std::move(g_prev);
  }
  return g;
}

std::vector<param_ref> dense_block::params() {
  std::vector<param_ref> out;
  for (auto& unit : units_) {
    for (auto& p : unit->params()) out.push_back(p);
  }
  return out;
}

std::vector<tensor*> dense_block::state() {
  std::vector<tensor*> out;
  for (auto& unit : units_) {
    for (auto* t : unit->state()) out.push_back(t);
  }
  return out;
}

std::string dense_block::describe() const {
  std::ostringstream out;
  out << "dense_block(" << units_.size() << " units, growth " << growth_
      << ", " << in_c_ << " -> " << out_channels() << " channels)";
  return out.str();
}

int dense_block::probe_count() const {
  int n = probe_ ? 1 : 0;
  for (const bool p : unit_probe_) n += p ? 1 : 0;
  return n;
}

void dense_block::set_unit_probes(int n) {
  const int total = static_cast<int>(units_.size());
  const int count = (n < 0 || n > total) ? total : n;
  for (int u = 0; u < total; ++u) {
    unit_probe_[static_cast<std::size_t>(u)] = u >= total - count;
  }
}

transition::transition(std::int64_t in_c, std::int64_t out_c, rng& gen)
    : out_c_{out_c},
      bn_{in_c},
      conv_{in_c, out_c, /*kernel=*/1, /*stride=*/1, /*pad=*/0, gen,
            /*bias=*/false},
      pool_{2} {}

tensor transition::forward(const tensor& x, bool training) {
  tensor h = bn_.forward(x, training);
  h = act_.forward(h, training);
  h = conv_.forward(h, training);
  return pool_.forward(h, training);
}

tensor transition::infer(const tensor& x, std::vector<tensor>* probes) const {
  trace_span span{"nn.transition.forward"};
  if (x.dim() != 4 || x.extent(1) != conv_.in_channels()) {
    throw std::invalid_argument{"transition::infer: bad input " +
                                x.shape_string()};
  }
  const std::int64_t n = x.extent(0), h = x.extent(2), w = x.extent(3);
  const std::int64_t plane = h * w;
  const fused_composite f = fuse(bn_, conv_, 1);
  tensor conv_out{{n, out_c_, h, w}};
  // dv:parallel-safe(disjoint samples) dv-lint: allow(effect:may_allocate)
  parallel_for(0, n, k_sample_grain, [&](std::int64_t begin, std::int64_t end) {
    thread_local std::vector<float> staged;
    for (std::int64_t i = begin; i < end; ++i) {
      run_fused(f, x.data() + i * f.in_c * plane, h, w, staged,
                conv_out.data() + i * out_c_ * plane);
    }
  });
  tensor out = pool_.infer(conv_out, nullptr);
  record_probe(out, probes);
  return out;
}

tensor transition::backward(const tensor& grad_out) {
  tensor g = pool_.backward(grad_out);
  g = conv_.backward(g);
  g = act_.backward(g);
  return bn_.backward(g);
}

std::vector<param_ref> transition::params() {
  auto out = bn_.params();
  for (auto& p : conv_.params()) out.push_back(p);
  return out;
}

std::vector<tensor*> transition::state() { return bn_.state(); }

std::string transition::describe() const {
  std::ostringstream out;
  out << "transition(conv1x1 -> " << out_c_ << " channels, avg_pool 2x2)";
  return out.str();
}

}  // namespace dv
