#include "common.h"

namespace perfbench {

nn_profile replay_layers(sequential& model,
                         const std::vector<tensor>& inputs) {
  nn_profile out;
  out.ms_per_row.assign(model.layer_count(), 0.0);
  std::int64_t rows = 0;
  bool counted = false;
  for (const tensor& input : inputs) {
    tensor h = input;
    rows += input.extent(0);
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      layer& l = model.at(i);
      if (!counted) {
        // Weight matrices ([out, fan_in]) of a layer fed a 4-D input are
        // conv kernels, which run once per input pixel: every conv in
        // these models is stride 1 with "same" padding. On a 2-D input
        // they are dense weights, used once per row.
        const double pixels =
            h.dim() == 4 ? static_cast<double>(h.extent(2) * h.extent(3))
                         : 1.0;
        for (const param_ref& p : l.params()) {
          if (p.value->dim() >= 2) {
            out.macs_per_row += static_cast<double>(p.value->numel()) * pixels;
          }
        }
      }
      const std::int64_t t0 = now_ns();
      h = l.forward(h, /*training=*/false);
      out.ms_per_row[i] += static_cast<double>(now_ns() - t0) * 1e-6;
    }
    counted = true;
  }
  if (rows > 0) {
    for (double& ms : out.ms_per_row) ms /= static_cast<double>(rows);
  }
  return out;
}

void set_nn_metrics(run_result& out, dataset_kind kind, sequential& model,
                    const nn_profile& profile, double rows_per_frame) {
  const std::string name = dataset_kind_name(kind);
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    out.set(nn_layer_metric(name, i, model.at(i).name()),
            profile.ms_per_row[i] * rows_per_frame, "ms");
  }
  out.set("nn." + name + ".macs_per_frame", profile.macs_per_row, "count");
}

}  // namespace perfbench
