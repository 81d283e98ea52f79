// Queue-backed front end for the runtime monitor (docs/SERVING.md).
//
// Frames submitted here are micro-batched, scored with one shared
// activation extraction per batch, and folded into the monitor's
// hysteresis state machine in FIFO order on the worker thread. Each frame
// is judged by the scorer's verdict (scoring_result::invalid) and carries
// its bank generation, so with an engine_scorer a newly published
// threshold takes effect with its generation. Over the monitor's own
// validator, verdicts are bitwise identical to calling
// runtime_monitor::observe per frame in the same order, for any max_batch
// and any DV_THREADS (ctest-enforced).
//
// caller_runs overflow is forbidden: it would apply a late frame's
// hysteresis update ahead of queued earlier frames. Use block (lossless)
// or reject (load shedding — a rejected frame simply never enters the
// verdict stream). Submit and reset() must come from one producer thread;
// the worker is the only other toucher of the monitor.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <vector>

#include "core/monitor.h"
#include "serve/micro_batcher.h"
#include "serve/scoring.h"

namespace dv {

class monitor_service {
 public:
  /// Scores with a validator_scorer built over `model` and the monitor's
  /// validator. Both must outlive the service.
  monitor_service(sequential& model, runtime_monitor& monitor,
                  const serve_config& config = {});

  /// Scores with a caller-provided scorer (e.g. a test stub); `scorer`
  /// and `monitor` must outlive the service.
  monitor_service(batch_scorer& scorer, runtime_monitor& monitor,
                  const serve_config& config = {});

  /// Enqueues one [C,H,W] frame; the future resolves to the verdict after
  /// this frame's hysteresis update.
  std::future<monitor_verdict> submit(tensor frame);

  /// Blocks until every accepted frame's verdict has been applied.
  void flush();
  /// flush() + runtime_monitor::reset() — safe because after the flush
  /// the worker is parked in the queue with nothing in flight.
  void reset();
  /// Stops accepting, drains in-flight frames, joins the worker.
  void shutdown();

  bool running() const { return batcher_.running(); }
  std::size_t queue_depth() const { return batcher_.queue_depth(); }

 private:
  static const serve_config& validated(const serve_config& config);
  std::vector<monitor_verdict> score_and_apply(const tensor& frames);

  std::unique_ptr<validator_scorer> owned_scorer_;
  batch_scorer* scorer_;
  runtime_monitor& monitor_;
  micro_batcher<monitor_verdict> batcher_;
};

}  // namespace dv
