// Bounded multi-producer single-consumer queue with batch draining, the
// primitive under the serving layer's micro-batcher (see docs/SERVING.md).
//
// Producers push single items and block (or bounce, via try_push) when the
// queue is full — that bound is the backpressure mechanism. The single
// consumer drains with pop_batch(): it blocks for the first item, then
// takes whatever else is already queued, up to `max_items`, and returns
// without waiting for more. close() wakes everyone; producers fail fast
// afterwards while the consumer keeps draining until the queue is empty,
// so no accepted item is ever dropped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace dv {

enum class queue_push_result { ok, full, closed };

template <typename T>
class bounded_queue {
 public:
  explicit bounded_queue(std::size_t capacity) : capacity_{capacity} {}

  bounded_queue(const bounded_queue&) = delete;
  bounded_queue& operator=(const bounded_queue&) = delete;

  /// Blocks while the queue is full. Returns false (and leaves `item`
  /// unconsumed) once the queue is closed.
  bool push(T& item) {
    std::unique_lock lock{mutex_};
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; moves from `item` only on `ok`.
  queue_push_result try_push(T& item) {
    std::unique_lock lock{mutex_};
    if (closed_) return queue_push_result::closed;
    if (items_.size() >= capacity_) return queue_push_result::full;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return queue_push_result::ok;
  }

  /// Consumer side. Replaces `out` with up to `max_items` items: blocks
  /// until the first item arrives, then takes whatever else is queued
  /// without waiting for more. Returns false only when the queue is
  /// closed AND empty — the drain-complete signal.
  bool pop_batch(std::vector<T>& out, std::size_t max_items) {
    out.clear();
    std::unique_lock lock{mutex_};
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    take_available(out, max_items);
    lock.unlock();
    not_full_.notify_all();
    return !out.empty();
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain the remainder.
  void close() {
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock{mutex_};
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock{mutex_};
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  void take_available(std::vector<T>& out, std::size_t max_items) {
    while (!items_.empty() && out.size() < max_items) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;   // dv:guarded-by(mutex_)
  bool closed_{false};    // dv:guarded-by(mutex_)
};

}  // namespace dv
