// Shutdown edges of the bounded MPSC queue under the serving layer, and
// the caller_runs overflow path of the micro-batcher built on top of it:
// push-after-close fails fast without consuming the item, a concurrent
// drain during a producer storm drops and duplicates nothing, close()
// releases parked producers and consumers, and a saturated queue under
// caller_runs scores on the submitting thread. All of it runs under the
// DV_SANITIZE=thread stage, so the assertions double as race detectors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/micro_batcher.h"
#include "tensor/tensor.h"
#include "util/bounded_queue.h"
#include "util/metrics.h"

namespace dv {
namespace {

using namespace std::chrono_literals;

TEST(QueueShutdown, PushAfterCloseFailsFastAndKeepsTheItem) {
  bounded_queue<int> q{4};
  q.close();
  EXPECT_TRUE(q.closed());
  int item = 41;
  EXPECT_FALSE(q.push(item));
  EXPECT_EQ(item, 41);  // failed pushes must not consume the item
  EXPECT_EQ(q.try_push(item), queue_push_result::closed);
  EXPECT_EQ(item, 41);
  EXPECT_EQ(q.size(), 0u);
  // The consumer sees the drain-complete signal immediately.
  std::vector<int> batch;
  EXPECT_FALSE(q.pop_batch(batch, 8));
  EXPECT_TRUE(batch.empty());
  q.close();  // idempotent
  EXPECT_TRUE(q.closed());
}

TEST(QueueShutdown, CloseReleasesParkedProducerWithoutConsuming) {
  bounded_queue<int> q{1};
  int head = 1;
  ASSERT_TRUE(q.push(head));
  std::atomic<bool> started{false};
  int stuck = 7;
  bool pushed = true;
  std::thread producer{[&] {
    started.store(true);
    pushed = q.push(stuck);  // parks: the queue is full
  }};
  while (!started.load()) std::this_thread::yield();
  q.close();
  producer.join();
  EXPECT_FALSE(pushed);
  EXPECT_EQ(stuck, 7);
  // The item accepted before close() is still drained.
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_batch(batch, 8));
  EXPECT_EQ(batch, std::vector<int>{1});
  EXPECT_FALSE(q.pop_batch(batch, 8));
}

TEST(QueueShutdown, CloseReleasesParkedConsumer) {
  bounded_queue<int> q{4};
  std::promise<bool> popped;
  auto fut = popped.get_future();
  std::thread consumer{[&] {
    std::vector<int> batch;
    popped.set_value(q.pop_batch(batch, 4));
  }};
  // Nothing is ever pushed, so only close() can release the consumer.
  EXPECT_EQ(fut.wait_for(20ms), std::future_status::timeout);
  q.close();
  consumer.join();
  EXPECT_FALSE(fut.get());
}

TEST(QueueShutdown, DrainWhilePushingDropsAndDuplicatesNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 256;
  // A tiny bound keeps every producer cycling through the park/wake path
  // while the consumer drains concurrently.
  bounded_queue<int> q{8};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        EXPECT_TRUE(q.push(item));
      }
    });
  }
  std::vector<int> hits(kProducers * kPerProducer, 0);
  std::size_t total = 0;
  std::thread consumer{[&] {
    std::vector<int> batch;
    while (q.pop_batch(batch, 32)) {
      for (const int v : batch) ++hits[static_cast<std::size_t>(v)];
      total += batch.size();
    }
  }};
  for (auto& t : producers) t.join();
  q.close();  // all pushes accepted; the consumer drains the tail and exits
  consumer.join();
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers * kPerProducer));
  for (const int h : hits) ASSERT_EQ(h, 1);
  EXPECT_EQ(q.size(), 0u);
}

TEST(QueueShutdown, CallerRunsScoresOnTheSubmittingThreadWhenFull) {
  metrics::set_enabled(true);
  const std::string caller_runs_series =
      "dv_serve_caller_runs_total{service=\"queue_shutdown\"}";

  std::mutex mu;
  std::vector<std::thread::id> run_threads;
  std::thread::id worker_id{};
  std::atomic<bool> hold{true};
  std::atomic<int> entered{0};
  // Scores 2x the tag pixel per frame. The first invocation is
  // necessarily the worker (the inline path is reachable only while the
  // worker is busy), and it parks until the test opens the gate.
  auto fn = [&](const tensor& frames) {
    const auto me = std::this_thread::get_id();
    bool is_worker = false;
    {
      std::lock_guard lock{mu};
      if (run_threads.empty()) worker_id = me;
      is_worker = me == worker_id;
      run_threads.push_back(me);
    }
    entered.fetch_add(1);
    if (is_worker) {
      while (hold.load()) std::this_thread::yield();
    }
    std::vector<float> out;
    const std::int64_t stride =
        frames.extent(1) * frames.extent(2) * frames.extent(3);
    for (std::int64_t i = 0; i < frames.extent(0); ++i) {
      out.push_back(frames.data()[i * stride] * 2.0f);
    }
    return out;
  };

  serve_config cfg;
  cfg.batch.max_batch = 1;
  cfg.queue_capacity = 1;
  cfg.max_delay = 0us;
  cfg.on_full = overflow_policy::caller_runs;
  auto frame = [](float tag) {
    tensor f{{1, 2, 2}};
    f.data()[0] = tag;
    return f;
  };

  {
    micro_batcher<float> batcher{"queue_shutdown", fn, cfg};
    auto a = batcher.submit(frame(3));
    while (entered.load() < 1) std::this_thread::yield();  // worker parked
    auto b = batcher.submit(frame(5));  // queued: capacity 1 is now full
    std::future<float> c;
    std::thread submitter{[&] { c = batcher.submit(frame(7)); }};
    // The worker is parked and b occupies the only slot, so the third
    // submit must take the inline path; wait for its counter tick (which
    // run_inline records before serializing on the score mutex) before
    // opening the gate.
    for (;;) {
      const auto* tick = metrics::get_counter(caller_runs_series);
      if (tick != nullptr && tick->value() == 1) break;
      std::this_thread::yield();
    }
    hold.store(false);
    submitter.join();
    EXPECT_EQ(a.get(), 6.0f);
    EXPECT_EQ(b.get(), 10.0f);
    EXPECT_EQ(c.get(), 14.0f);
    batcher.shutdown();
  }

  std::lock_guard lock{mu};
  ASSERT_EQ(run_threads.size(), 3u);
  int on_worker = 0;
  for (const auto id : run_threads) on_worker += id == worker_id ? 1 : 0;
  // Frames a and b ride the queue path on the worker; exactly one call —
  // frame c — ran on the submitting thread. After the gate opens the
  // worker (b) and the submitter (c) race for the score mutex, so only
  // the first slot's owner is deterministic.
  EXPECT_EQ(on_worker, 2);
  EXPECT_EQ(run_threads[0], worker_id);
  metrics::set_enabled(false);
  metrics::reset();
}

}  // namespace
}  // namespace dv
