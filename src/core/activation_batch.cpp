#include "core/activation_batch.h"

#include <stdexcept>

#include "core/probe_reducer.h"
#include "tensor/ops.h"

namespace dv {

tensor activation_batch::probe_features(int p, int spatial) const {
  return reduce_probe(probes[static_cast<std::size_t>(p)], spatial);
}

tensor activation_batch::last_probe_features() const {
  if (probes.empty()) {
    throw std::logic_error{"activation_batch: model has no probes"};
  }
  tensor feat = probes.back();
  return feat.reshape({feat.extent(0), feat.numel() / feat.extent(0)});
}

activation_batch extract_activations(const sequential& model, tensor images) {
  if (images.dim() == 3) {
    images.reshape(
        {1, images.extent(0), images.extent(1), images.extent(2)});
  }
  if (images.dim() != 4) {
    throw std::invalid_argument{
        "extract_activations: expected [N,C,H,W] images"};
  }
  inference pass = model.infer(images);
  activation_batch out;
  out.logits = std::move(pass.logits);
  out.predictions = argmax_rows(out.logits);
  out.probes = std::move(pass.probes);
  out.images = std::move(images);
  return out;
}

}  // namespace dv
