// Async micro-batcher: the engine under scoring_service and
// monitor_service (docs/SERVING.md).
//
// Producers submit single [C,H,W] frames and get a std::future per frame.
// A dedicated worker thread drains the bounded request queue in batches —
// whatever is queued when it is free, up to serve_config::batch.max_batch
// frames, without waiting for more — stacks them into one [N,C,H,W]
// tensor, and runs the batch function once. Under load, frames pile up
// while the worker scores, so batches still form. The heavy math inside the
// batch function fans out on dv::thread_pool (parallel GEMM / per-image
// scoring); the worker itself is a plain thread because the pool's
// fork-join parallel_for regions cannot host a blocking queue consumer.
//
// Lifecycle guarantees:
//  - every accepted frame's future is completed (value or exception) —
//    shutdown() closes the queue, drains what was accepted, then joins;
//  - a batch function failure is broadcast to every future of that batch
//    and the worker keeps serving subsequent batches;
//  - flush() blocks until all accepted frames have completed.
//
// Batch composition depends on arrival timing, but results do not: the
// scorer contract (scoring.h) is per-row independence, so any interleaving
// of batches yields bitwise-identical per-frame results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/scoring.h"
#include "tensor/tensor.h"
#include "util/bounded_queue.h"
#include "util/metrics.h"

namespace dv {

namespace serve_detail {
/// dv_serve_batch_size buckets: powers of two 1..256; integer counts, so
/// the histogram sum is exact for any thread count.
inline metrics::histogram_options batch_size_buckets() {
  return metrics::histogram_options::exponential(1.0, 2.0, 9, /*scale=*/1.0);
}
}  // namespace serve_detail

template <typename Result>
class micro_batcher {
 public:
  using batch_fn = std::function<std::vector<Result>(const tensor&)>;

  /// `service` labels this batcher's metrics series
  /// (dv_serve_*{service="..."}). The worker starts immediately.
  micro_batcher(std::string service, batch_fn fn, const serve_config& config)
      : service_{std::move(service)},
        fn_{std::move(fn)},
        config_{config},
        queue_{config.queue_capacity} {
    if (config_.batch.max_batch < 1) {
      throw std::invalid_argument{"micro_batcher: max_batch must be >= 1"};
    }
    if (config_.queue_capacity < 1) {
      throw std::invalid_argument{"micro_batcher: queue_capacity must be >= 1"};
    }
    if (config_.max_delay.count() < 0) {
      throw std::invalid_argument{"micro_batcher: max_delay must be >= 0"};
    }
    worker_ = std::thread{[this] { worker_loop(); }};
  }

  ~micro_batcher() { shutdown(); }

  micro_batcher(const micro_batcher&) = delete;
  micro_batcher& operator=(const micro_batcher&) = delete;

  /// Enqueues one [C,H,W] frame. Returns a future completed by the worker
  /// (or inline under caller_runs overflow). Throws serve_rejected_error
  /// (reject policy, queue full) or std::runtime_error (after shutdown).
  std::future<Result> submit(tensor frame) {
    if (frame.dim() != 3) {
      throw std::invalid_argument{service_ +
                                  ": submit expects a [C,H,W] frame"};
    }
    check_shape(frame);
    item it;
    it.frame = std::move(frame);
    it.enqueue_ns = metrics::now_ns();
    std::future<Result> fut = it.promise.get_future();
    note_pending(1);
    if (metrics::enabled()) {
      metrics::count(labeled("dv_serve_requests_total"));
    }
    switch (config_.on_full) {
      case overflow_policy::block:
        if (!queue_.push(it)) {
          note_pending(-1);
          throw std::runtime_error{service_ + ": submit after shutdown"};
        }
        break;
      case overflow_policy::reject:
        switch (queue_.try_push(it)) {
          case queue_push_result::ok:
            break;
          case queue_push_result::closed:
            note_pending(-1);
            throw std::runtime_error{service_ + ": submit after shutdown"};
          case queue_push_result::full:
            note_pending(-1);
            if (metrics::enabled()) {
              metrics::count(labeled("dv_serve_rejected_total"));
            }
            throw serve_rejected_error{service_ + ": request queue full"};
        }
        break;
      case overflow_policy::caller_runs:
        switch (queue_.try_push(it)) {
          case queue_push_result::ok:
            break;
          case queue_push_result::closed:
            note_pending(-1);
            throw std::runtime_error{service_ + ": submit after shutdown"};
          case queue_push_result::full:
            run_inline(it);
            break;
        }
        break;
    }
    return fut;
  }

  /// Blocks until every accepted frame's future has been completed.
  void flush() {
    std::unique_lock lock{pending_mutex_};
    pending_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }

  /// Closes the queue (further submits throw), drains every accepted
  /// frame, and joins the worker. Idempotent.
  void shutdown() {
    queue_.close();
    std::lock_guard lock{shutdown_mutex_};
    if (worker_.joinable()) worker_.join();
  }

  bool running() const { return !queue_.closed(); }
  std::size_t queue_depth() const { return queue_.size(); }
  /// Accepted frames whose futures are not yet completed.
  std::int64_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  struct item {
    tensor frame;
    std::promise<Result> promise;
    std::int64_t enqueue_ns{0};
  };

  std::string labeled(const char* base) const {
    return std::string{base} + "{service=\"" + service_ + "\"}";
  }

  void check_shape(const tensor& frame) {
    std::lock_guard lock{shape_mutex_};
    if (expected_shape_.empty()) {
      expected_shape_ = frame.shape();
      return;
    }
    if (frame.shape() != expected_shape_) {
      throw std::invalid_argument{service_ + ": frame shape mismatch"};
    }
  }

  /// Lock-free on the common path: the counter is atomic, and the mutex
  /// is taken only on the transition to zero so a flush() racing between
  /// its predicate check and its wait cannot miss the notify.
  void note_pending(std::int64_t delta) {
    if (pending_.fetch_add(delta, std::memory_order_acq_rel) + delta == 0) {
      std::lock_guard lock{pending_mutex_};
      pending_cv_.notify_all();
    }
  }

  /// caller_runs overflow: score a batch of one on the submitting thread,
  /// serialized with the worker (the scorer's activation cache takes one
  /// stream at a time). Scores are batch-invariant, so the result is
  /// identical to the queued path.
  // Same deliberate locks as score_batch (scorer serialization + the rare
  // pending==0 notify).
  // dv:hot-path(caller_runs overflow) dv-lint: allow(effect:acquires_lock)
  void run_inline(item& it) {
    if (metrics::enabled()) {
      metrics::count(labeled("dv_serve_caller_runs_total"));
    }
    tensor frames{{1, it.frame.extent(0), it.frame.extent(1),
                   it.frame.extent(2)}};
    frames.set_sample(0, it.frame);
    complete_batch_one(it, frames);
  }

  void complete_batch_one(item& it, const tensor& frames) {
    std::vector<Result> results;
    try {
      std::lock_guard lock{score_mutex_};
      results = fn_(frames);
      if (results.size() != 1) {
        throw std::logic_error{service_ + ": scorer returned wrong count"};
      }
    } catch (...) {
      it.promise.set_exception(std::current_exception());
      note_pending(-1);
      return;
    }
    it.promise.set_value(std::move(results.front()));
    note_pending(-1);
  }

  // dv:thread-entry(dedicated batch worker thread started by the ctor)
  void worker_loop() {
    std::vector<item> batch;
    while (queue_.pop_batch(
        batch, static_cast<std::size_t>(config_.batch.max_batch))) {
      score_batch(batch);
    }
  }

  // The remaining locks are deliberate: score_mutex_ serializes the
  // scorer (its activation cache), and note_pending's mutex is taken only
  // on the rare pending==0 transition.
  // dv:hot-path(per-batch worker path) dv-lint: allow(effect:acquires_lock)
  void score_batch(std::vector<item>& batch) {
    const auto n = static_cast<std::int64_t>(batch.size());
    if (metrics::enabled()) {
      // Single-writer gauge: only this worker thread sets it.
      metrics::set(labeled("dv_serve_queue_depth"),
                   static_cast<double>(queue_.size()));
      metrics::observe(labeled("dv_serve_batch_size"),
                       serve_detail::batch_size_buckets(),
                       static_cast<double>(n));
      const std::int64_t now = metrics::now_ns();
      for (const auto& it : batch) {
        metrics::observe(labeled("dv_serve_wait_seconds"),
                         metrics::histogram_options::latency(),
                         static_cast<double>(now - it.enqueue_ns) * 1e-9);
      }
      metrics::count(labeled("dv_serve_batches_total"));
    }
    const tensor& first = batch.front().frame;
    tensor frames{{n, first.extent(0), first.extent(1), first.extent(2)}};
    for (std::int64_t i = 0; i < n; ++i) {
      frames.set_sample(i, batch[static_cast<std::size_t>(i)].frame);
    }
    std::vector<Result> results;
    try {
      std::lock_guard lock{score_mutex_};
      results = fn_(frames);
      if (results.size() != batch.size()) {
        throw std::logic_error{service_ + ": scorer returned wrong count"};
      }
    } catch (...) {
      // Broadcast the failure; the worker keeps serving later batches.
      const auto error = std::current_exception();
      for (auto& it : batch) it.promise.set_exception(error);
      note_pending(-n);
      return;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(results[i]));
    }
    note_pending(-n);
  }

  const std::string service_;
  const batch_fn fn_;
  const serve_config config_;
  /// Internally synchronized (bounded_queue owns its own mutex), so no
  /// external lock guards it. dv-lint: allow(race)
  bounded_queue<item> queue_;
  /// Started in the ctor; joinable()/join() race only against shutdown()
  /// itself, which shutdown_mutex_ serializes. dv:guarded-by(shutdown_mutex_)
  std::thread worker_;
  /// Serializes batch-function invocations (worker vs. caller_runs). The
  /// model's inference pass is reentrant; what needs one caller at a time
  /// is the scorer's activation cache, a single-mutator LRU
  /// (docs/CACHING.md).
  std::mutex score_mutex_;
  std::mutex shutdown_mutex_;
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::atomic<std::int64_t> pending_{0};
  std::mutex shape_mutex_;
  std::vector<std::int64_t> expected_shape_;  // dv:guarded-by(shape_mutex_)
};

}  // namespace dv
