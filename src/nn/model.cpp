#include "nn/model.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "nn/probe_reducer.h"
#include "tensor/ops.h"
#include "util/flat_snapshot.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace dv {

namespace {

/// Version of the model/ sections written by save_params.
constexpr std::int64_t k_model_format = 1;

/// Copies the rows of `part` into `whole` starting at row `first_row`.
void copy_rows(const tensor& part, tensor& whole, std::int64_t first_row) {
  const std::int64_t row = whole.numel() / whole.extent(0);
  std::memcpy(whole.data() + first_row * row, part.data(),
              static_cast<std::size_t>(part.numel()) * sizeof(float));
}

/// A tensor shaped like `part` but with `rows` rows.
tensor with_rows(const tensor& part, std::int64_t rows) {
  std::vector<std::int64_t> shape = part.shape();
  shape[0] = rows;
  return tensor{std::move(shape)};
}

/// reduce_probe of a convolutional probe, reshaped to [N, C, s', s'] so a
/// reduced batch still tells convolutional probes from dense ones.
tensor reduce_conv_probe(const tensor& probe, int spatial) {
  tensor out = reduce_probe(probe, spatial);
  const std::int64_t s = std::min<std::int64_t>(
      spatial, std::min(probe.extent(2), probe.extent(3)));
  out.reshape({probe.extent(0), probe.extent(1), s, s});
  return out;
}

}  // namespace

probe_output probe_output::reduced(int spatial) {
  if (spatial < 1) {
    throw std::invalid_argument{"probe_output::reduced: spatial must be >= 1"};
  }
  return probe_output{spatial};
}

layer& sequential::add(std::unique_ptr<layer> l, bool probe) {
  l->set_probe(probe);
  layers_.push_back(std::move(l));
  return *layers_.back();
}

tensor sequential::forward(const tensor& x, bool training) {
  tensor h = x;
  for (auto& l : layers_) h = l->forward(h, training);
  return h;
}

tensor sequential::backward(const tensor& grad_logits) {
  tensor g = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

inference sequential::infer(const tensor& x, probe_output probes) const {
  if (x.dim() < 1 || x.extent(0) < 1) {
    throw std::invalid_argument{"sequential::infer: empty batch " +
                                x.shape_string()};
  }
  const auto run_slice = [&](const tensor& rows) {
    inference out;
    std::vector<tensor>* outputs = nullptr;
    if (probes.wanted()) {
      out.probes.reserve(static_cast<std::size_t>(probe_count()));
      outputs = &out.probes;
    }
    out.logits = rows;
    for (const auto& l : layers_) out.logits = l->infer(out.logits, outputs);
    // reduce_probe works row by row, so a row reduced here has the bits
    // it would have inside the whole batch. Dense probes pass through.
    if (probes.spatial() > 0) {
      for (tensor& p : out.probes) {
        if (p.dim() != 2) p = reduce_conv_probe(p, probes.spatial());
      }
    }
    return out;
  };
  const std::int64_t n = x.extent(0);
  if (n <= infer_slice_rows) return run_slice(x);

  // Every layer is per-row independent (DESIGN.md §8), so slicing only
  // regroups rows: each slice's rows equal the whole-batch rows bit for
  // bit. The kernels inside a slice run sequentially (nested region). The
  // first slice to finish sizes the outputs; each slice then copies its
  // rows (its probes already reduced, when asked) in and frees its own
  // tensors.
  inference out;
  std::once_flag sized;
  // Const layers write no member; every slice allocates its own tensors
  // and fills disjoint output rows once call_once has sized `out`.
  // dv:parallel-safe(disjoint rows) dv-lint: allow(effect:may_allocate)
  parallel_for(0, n, infer_slice_rows, [&](std::int64_t begin,
                                           std::int64_t end) {
    const inference part = run_slice(x.slice_rows(begin, end));
    std::call_once(sized, [&] {
      // Runs once per call. dv-lint: allow(capture)
      out.logits = with_rows(part.logits, n);
      for (const tensor& p : part.probes) out.probes.push_back(with_rows(p, n));
    });
    copy_rows(part.logits, out.logits, begin);
    for (std::size_t p = 0; p < out.probes.size(); ++p) {
      copy_rows(part.probes[p], out.probes[p], begin);
    }
  });
  return out;
}

tensor sequential::probabilities(const tensor& x) const {
  tensor logits = infer(x, probe_output::none()).logits;
  softmax_rows(logits);
  return logits;
}

std::vector<std::int64_t> sequential::predict(const tensor& x) const {
  return argmax_rows(infer(x, probe_output::none()).logits);
}

int sequential::probe_count() const {
  int n = 0;
  for (const auto& l : layers_) n += l->probe_count();
  return n;
}

std::vector<param_ref> sequential::params() {
  std::vector<param_ref> out;
  for (auto& l : layers_) {
    for (auto& p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<tensor*> sequential::state() {
  std::vector<tensor*> out;
  for (auto& l : layers_) {
    for (auto* t : l->state()) out.push_back(t);
  }
  return out;
}

std::int64_t sequential::param_count() {
  std::int64_t n = 0;
  for (auto& p : params()) n += p.value->numel();
  return n;
}

void sequential::zero_grad() {
  for (auto& p : params()) p.grad->fill(0.0f);
}

std::string sequential::describe() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    out << "  " << (i + 1) << ". " << layers_[i]->describe();
    if (layers_[i]->probe_count() > 0) {
      out << "   [probe x" << layers_[i]->probe_count() << "]";
    }
    out << "\n";
  }
  return out.str();
}

void sequential::save_params(const std::string& path) const {
  auto& self = const_cast<sequential&>(*this);
  const auto ps = self.params();
  const auto st = self.state();
  snapshot_writer w;
  w.add_i64_scalar("model/format", k_model_format);
  const std::int64_t counts[2] = {static_cast<std::int64_t>(ps.size()),
                                  static_cast<std::int64_t>(st.size())};
  w.add_i64("model/counts", counts);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ps[i].value->save_snapshot(w, "model/p" + std::to_string(i) + "/");
  }
  for (std::size_t i = 0; i < st.size(); ++i) {
    st[i]->save_snapshot(w, "model/s" + std::to_string(i) + "/");
  }
  w.finish(path);
}

void sequential::load_params(const std::string& path) {
  const auto snap = snapshot_view::open(path);
  if (!snap->has("model/format") ||
      snap->i64_scalar("model/format") != k_model_format) {
    throw serialize_error{"model load: " + path + " is not a model snapshot"};
  }
  const auto counts = snap->i64("model/counts");
  const auto ps = params();
  const auto st = state();
  if (counts.size() != 2 ||
      counts[0] != static_cast<std::int64_t>(ps.size())) {
    throw serialize_error{"model load: parameter count mismatch"};
  }
  if (counts[1] != static_cast<std::int64_t>(st.size())) {
    throw serialize_error{"model load: state count mismatch"};
  }
  // Check every tensor before copying any, so a bad file leaves the model
  // as it was. Shapes match, so the values copy into the existing storage:
  // reallocating the parameters here shifted the allocator's state enough
  // to slow later forward passes by up to 15% (perfbench offline_audit).
  std::vector<std::pair<tensor*, std::span<const float>>> copies;
  const auto check = [&](tensor& dst, const std::string& prefix,
                         const std::string& what) {
    const auto shape = snap->i64(prefix + "shape");
    const auto data = snap->f32(prefix + "data");
    if (!std::equal(shape.begin(), shape.end(), dst.shape().begin(),
                    dst.shape().end()) ||
        data.size() != static_cast<std::size_t>(dst.numel())) {
      throw serialize_error{"model load: shape mismatch for " + what};
    }
    copies.emplace_back(&dst, data);
  };
  for (std::size_t i = 0; i < ps.size(); ++i) {
    check(*ps[i].value, "model/p" + std::to_string(i) + "/", ps[i].name);
  }
  for (std::size_t i = 0; i < st.size(); ++i) {
    check(*st[i], "model/s" + std::to_string(i) + "/",
          "state " + std::to_string(i));
  }
  for (const auto& [dst, data] : copies) {
    std::copy(data.begin(), data.end(), dst->data());
  }
}

}  // namespace dv
