#include "core/activation_batch.h"

#include <stdexcept>
#include <string>

#include "nn/probe_reducer.h"
#include "tensor/ops.h"

namespace dv {

tensor activation_batch::probe_features(int p, int spatial) const {
  const tensor& probe = probes[static_cast<std::size_t>(p)];
  if (reduced_spatial == 0) return reduce_probe(probe, spatial);
  if (spatial != reduced_spatial) {
    throw std::logic_error{
        "activation_batch: probes were reduced at spatial " +
        std::to_string(reduced_spatial) + ", not " + std::to_string(spatial)};
  }
  return probe.reshaped({probe.extent(0), probe.numel() / probe.extent(0)});
}

tensor activation_batch::last_probe_features() const {
  if (probes.empty()) {
    throw std::logic_error{"activation_batch: model has no probes"};
  }
  const tensor& last = probes.back();
  if (reduced_spatial != 0 && last.dim() != 2) {
    throw std::logic_error{
        "activation_batch: the last probe was reduced; its raw activations "
        "are not held"};
  }
  return last.reshaped({last.extent(0), last.numel() / last.extent(0)});
}

namespace {

activation_batch extract(const sequential& model, const tensor& images,
                         probe_output probes) {
  if (images.dim() == 3) {
    return extract(model,
                   images.reshaped({1, images.extent(0), images.extent(1),
                                    images.extent(2)}),
                   probes);
  }
  if (images.dim() != 4) {
    throw std::invalid_argument{
        "extract_activations: expected [N,C,H,W] images"};
  }
  inference pass = model.infer(images, probes);
  activation_batch out;
  out.logits = std::move(pass.logits);
  out.predictions = argmax_rows(out.logits);
  out.probes = std::move(pass.probes);
  out.reduced_spatial = probes.spatial();
  return out;
}

}  // namespace

activation_batch extract_activations(const sequential& model,
                                     const tensor& images) {
  return extract(model, images, probe_output::raw());
}

activation_batch extract_activations(const sequential& model,
                                     const tensor& images, int spatial) {
  return extract(model, images, probe_output::reduced(spatial));
}

}  // namespace dv
