#include "nn/model.h"

#include <cstring>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "tensor/ops.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace dv {

namespace {

constexpr const char* k_model_magic = "dv-model-v1";

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

}  // namespace

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

inference sequential::infer(const tensor& x, bool with_probes) const {
  if (x.dim() < 1 || x.extent(0) < 1) {
    throw std::invalid_argument{"sequential::infer: empty batch " +
                                x.shape_string()};
  }
  const auto run_slice = [&](const tensor& rows) {
    inference out;
    std::vector<tensor>* probes = nullptr;
    if (with_probes) {
      out.probes.reserve(static_cast<std::size_t>(probe_count()));
      probes = &out.probes;
    }
    out.logits = rows;
    for (const auto& l : layers_) out.logits = l->infer(out.logits, probes);
    return out;
  };
  const std::int64_t n = x.extent(0);
  if (n <= infer_slice_rows) return run_slice(x);

  // Every layer is per-row independent (DESIGN.md §8), so slicing only
  // regroups rows: each slice's rows equal the whole-batch rows bit for
  // bit. The kernels inside a slice run sequentially (nested region). The
  // first slice to finish sizes the outputs; each slice then copies its
  // rows in and frees its own tensors.
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
  tensor logits = infer(x, false).logits;
  softmax_rows(logits);
  return logits;
}

std::vector<std::int64_t> sequential::predict(const tensor& x) const {
  return argmax_rows(infer(x, false).logits);
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
  binary_writer w{path, k_model_magic};
  auto& self = const_cast<sequential&>(*this);
  const auto ps = self.params();
  w.write_u64(ps.size());
  for (const auto& p : ps) p.value->save(w);
  const auto st = self.state();
  w.write_u64(st.size());
  for (const auto* t : st) t->save(w);
  w.finish();
}

void sequential::load_params(const std::string& path) {
  binary_reader r{path, k_model_magic};
  const auto ps = params();
  if (r.read_u64() != ps.size()) {
    throw serialize_error{"model load: parameter count mismatch"};
  }
  for (const auto& p : ps) {
    tensor t = tensor::load(r);
    if (t.shape() != p.value->shape()) {
      throw serialize_error{"model load: shape mismatch for " + p.name};
    }
    *p.value = std::move(t);
  }
  const auto st = state();
  if (r.read_u64() != st.size()) {
    throw serialize_error{"model load: state count mismatch"};
  }
  for (auto* dst : st) {
    tensor t = tensor::load(r);
    if (t.shape() != dst->shape()) {
      throw serialize_error{"model load: state shape mismatch"};
    }
    *dst = std::move(t);
  }
}

}  // namespace dv
