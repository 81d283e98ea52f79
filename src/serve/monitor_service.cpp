#include "serve/monitor_service.h"

#include <stdexcept>
#include <utility>

namespace dv {

const serve_config& monitor_service::validated(const serve_config& config) {
  if (config.on_full == overflow_policy::caller_runs) {
    throw std::invalid_argument{
        "monitor_service: caller_runs would reorder hysteresis updates"};
  }
  return config;
}

monitor_service::monitor_service(batch_scorer& scorer,
                                 runtime_monitor& monitor,
                                 const serve_config& config)
    : scorer_{scorer},
      monitor_{monitor},
      batcher_{"monitor",
               [this](const tensor& frames) { return score_and_apply(frames); },
               validated(config)} {}

std::vector<monitor_verdict> monitor_service::score_and_apply(
    const tensor& frames) {
  const auto rows = scorer_.score(frames);
  std::vector<monitor_verdict> out;
  out.reserve(rows.size());
  // FIFO within the batch and across batches (single worker), so the
  // hysteresis updates happen in exact submission order. Each frame keeps
  // the verdict and generation of the bank that scored it; a non-finite
  // frame arrives invalid, so it counts in the window.
  for (const auto& row : rows) {
    out.push_back(monitor_.apply({row.joint, row.prediction}, row.invalid,
                                 row.generation));
    out.back().nonfinite = row.nonfinite;
  }
  return out;
}

std::future<monitor_verdict> monitor_service::submit(tensor frame) {
  return batcher_.submit(std::move(frame));
}

void monitor_service::flush() { batcher_.flush(); }

void monitor_service::reset() {
  flush();
  monitor_.reset();
}

void monitor_service::shutdown() { batcher_.shutdown(); }

}  // namespace dv
