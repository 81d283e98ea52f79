// Tests for the batch-first serving layer: the bounded queue primitive,
// micro-batcher lifecycle (backpressure, rejection, caller-runs, shutdown
// drain, scorer failure), and the hard determinism contract — verdicts
// through the async micro-batched path are bitwise identical to the
// sequential observe path for any max_batch and any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "augment/stream.h"
#include "core/monitor.h"
#include "detect/dv_adapter.h"
#include "eval/metrics.h"
#include "serve/monitor_service.h"
#include "serve/scoring_service.h"
#include "test_util.h"
#include "util/bounded_queue.h"
#include "util/thread_pool.h"

namespace dv {
namespace {

using dv::testing::shared_tiny_world;
using namespace std::chrono_literals;

const deep_validator& fitted_validator() {
  static const deep_validator dv = [] {
    const auto& world = shared_tiny_world();
    deep_validator out;
    deep_validator_config cfg;
    cfg.max_train_per_class = 50;
    out.fit(*world.model, world.train, cfg);
    const auto clean = out.evaluate(*world.model, world.test.images).joint;
    out.set_threshold(threshold_for_fpr(clean, 0.05));
    return out;
  }();
  return dv;
}

/// A [1,2,2] frame whose first pixel encodes `value`.
tensor tagged_frame(float value) {
  tensor frame{{1, 2, 2}};
  frame.data()[0] = value;
  return frame;
}

/// Stateless stub: result.joint = first pixel of the frame. Negative
/// pixels make the whole batch throw.
class pixel_scorer : public batch_scorer {
 public:
  std::vector<scoring_result> score(const tensor& frames) override {
    const std::int64_t n = frames.extent(0);
    {
      std::lock_guard lock{mutex_};
      batch_sizes_.push_back(n);
    }
    std::vector<scoring_result> out(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const float pixel = frames.data()[i * 4];
      if (pixel < 0.0f) throw std::runtime_error{"pixel_scorer: bad frame"};
      out[static_cast<std::size_t>(i)].joint = static_cast<double>(pixel);
      out[static_cast<std::size_t>(i)].prediction = static_cast<std::int64_t>(pixel);
    }
    return out;
  }

  std::vector<std::int64_t> batch_sizes() {
    std::lock_guard lock{mutex_};
    return batch_sizes_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::int64_t> batch_sizes_;
};

/// pixel_scorer that parks inside score() until opened, so tests can fill
/// the queue deterministically while the worker is busy.
class gated_scorer : public pixel_scorer {
 public:
  std::vector<scoring_result> score(const tensor& frames) override {
    {
      std::unique_lock lock{mutex_};
      started_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return pixel_scorer::score(frames);
  }

  void wait_until_scoring() {
    std::unique_lock lock{mutex_};
    cv_.wait(lock, [this] { return started_; });
  }

  void open() {
    std::lock_guard lock{mutex_};
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool started_{false};
  bool open_{false};
};

struct thread_count_guard {
  ~thread_count_guard() { set_thread_count(0); }
};

// -- bounded_queue ----------------------------------------------------------

TEST(BoundedQueue, PopBatchCoalescesUpToMaxItems) {
  bounded_queue<int> q{8};
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_EQ(q.try_push(v), queue_push_result::ok);
  }
  std::vector<int> batch;
  ASSERT_TRUE(q.pop_batch(batch, 3, 0ns));
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  ASSERT_TRUE(q.pop_batch(batch, 3, 0ns));
  EXPECT_EQ(batch, (std::vector<int>{3, 4}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TryPushReportsFullAndClosed) {
  bounded_queue<int> q{1};
  int v = 1;
  EXPECT_EQ(q.try_push(v), queue_push_result::ok);
  int w = 2;
  EXPECT_EQ(q.try_push(w), queue_push_result::full);
  q.close();
  EXPECT_EQ(q.try_push(w), queue_push_result::closed);
}

TEST(BoundedQueue, CloseDrainsThenSignalsDone) {
  bounded_queue<int> q{4};
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_EQ(q.try_push(v), queue_push_result::ok);
  }
  q.close();
  std::vector<int> batch;
  ASSERT_TRUE(q.pop_batch(batch, 10, 1ms));
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_FALSE(q.pop_batch(batch, 10, 1ms));  // closed and empty
}

TEST(BoundedQueue, BlockingPushUnblocksWhenConsumerDrains) {
  bounded_queue<int> q{1};
  int first = 1;
  ASSERT_TRUE(q.push(first));
  std::thread producer{[&q] {
    int second = 2;
    EXPECT_TRUE(q.push(second));  // blocks until the pop below
  }};
  std::vector<int> batch;
  ASSERT_TRUE(q.pop_batch(batch, 1, 0ns));
  EXPECT_EQ(batch, (std::vector<int>{1}));
  producer.join();
  ASSERT_TRUE(q.pop_batch(batch, 1, 0ns));
  EXPECT_EQ(batch, (std::vector<int>{2}));
}

TEST(BoundedQueue, PopBatchWaitsForFirstItem) {
  bounded_queue<int> q{4};
  std::thread producer{[&q] {
    std::this_thread::sleep_for(5ms);
    int v = 7;
    (void)q.push(v);
  }};
  std::vector<int> batch;
  ASSERT_TRUE(q.pop_batch(batch, 4, 0ns));  // blocks for the first item
  EXPECT_EQ(batch, (std::vector<int>{7}));
  producer.join();
}

// -- scoring_service lifecycle ---------------------------------------------

serve_config stub_config(int max_batch, std::size_t capacity,
                         overflow_policy policy,
                         std::chrono::microseconds delay = 1000us) {
  serve_config cfg;
  cfg.batch.max_batch = max_batch;
  cfg.queue_capacity = capacity;
  cfg.on_full = policy;
  cfg.max_delay = delay;
  return cfg;
}

TEST(ScoringService, CompletesEveryFutureWithItsOwnResult) {
  pixel_scorer scorer;
  scoring_service svc{scorer, stub_config(4, 16, overflow_policy::block)};
  std::vector<std::future<scoring_result>> futures;
  for (int i = 0; i < 20; ++i) futures.push_back(svc.submit(tagged_frame(i)));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().joint, i);
  }
  svc.shutdown();
}

TEST(ScoringService, CoalescesQueuedFramesIntoOneBatch) {
  gated_scorer scorer;
  scoring_service svc{scorer, stub_config(8, 16, overflow_policy::block, 500us)};
  std::vector<std::future<scoring_result>> futures;
  futures.push_back(svc.submit(tagged_frame(0)));
  scorer.wait_until_scoring();  // worker busy with the batch {0}
  for (int i = 1; i < 8; ++i) futures.push_back(svc.submit(tagged_frame(i)));
  scorer.open();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().joint, i);
  }
  // Deterministic composition: {0} was in flight, the other 7 coalesce.
  EXPECT_EQ(scorer.batch_sizes(), (std::vector<std::int64_t>{1, 7}));
  svc.shutdown();
}

TEST(ScoringService, RejectPolicyThrowsWhenQueueIsFull) {
  gated_scorer scorer;
  scoring_service svc{scorer, stub_config(1, 2, overflow_policy::reject, 0us)};
  auto first = svc.submit(tagged_frame(0));
  scorer.wait_until_scoring();  // worker parked; queue now empty
  auto second = svc.submit(tagged_frame(1));
  auto third = svc.submit(tagged_frame(2));  // queue at capacity 2
  EXPECT_THROW((void)svc.submit(tagged_frame(3)), serve_rejected_error);
  scorer.open();
  EXPECT_EQ(first.get().joint, 0);
  EXPECT_EQ(second.get().joint, 1);
  EXPECT_EQ(third.get().joint, 2);
  svc.shutdown();
}

TEST(ScoringService, CallerRunsOverflowStillScoresCorrectly) {
  pixel_scorer scorer;
  scoring_service svc{scorer,
                      stub_config(1, 1, overflow_policy::caller_runs, 0us)};
  std::vector<std::future<scoring_result>> futures;
  for (int i = 0; i < 30; ++i) futures.push_back(svc.submit(tagged_frame(i)));
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().joint, i);
  }
  svc.shutdown();
}

TEST(ScoringService, ShutdownDrainsAcceptedFrames) {
  pixel_scorer scorer;
  auto svc = std::make_unique<scoring_service>(
      scorer, stub_config(4, 64, overflow_policy::block, 2000us));
  std::vector<std::future<scoring_result>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(svc->submit(tagged_frame(i)));
  svc->shutdown();  // must complete every accepted future
  for (int i = 0; i < 32; ++i) {
    auto& fut = futures[static_cast<std::size_t>(i)];
    ASSERT_EQ(fut.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(fut.get().joint, i);
  }
  EXPECT_FALSE(svc->running());
  EXPECT_THROW((void)svc->submit(tagged_frame(99)), std::runtime_error);
}

TEST(ScoringService, ScorerFailureReachesTheFutureAndWorkerSurvives) {
  pixel_scorer scorer;
  scoring_service svc{scorer, stub_config(1, 8, overflow_policy::block, 0us)};
  auto bad = svc.submit(tagged_frame(-1.0f));
  EXPECT_THROW((void)bad.get(), std::runtime_error);
  auto good = svc.submit(tagged_frame(5));
  EXPECT_EQ(good.get().joint, 5);  // worker still serving
  svc.shutdown();
}

TEST(ScoringService, MismatchedFrameShapeThrows) {
  pixel_scorer scorer;
  scoring_service svc{scorer, stub_config(4, 8, overflow_policy::block)};
  (void)svc.submit(tagged_frame(1));
  tensor other{{1, 3, 3}};
  EXPECT_THROW((void)svc.submit(std::move(other)), std::invalid_argument);
  svc.flush();
  svc.shutdown();
}

// -- validator_scorer against the direct batch path ------------------------

TEST(ValidatorScorer, MatchesDirectEvaluateWeightedAndDetector) {
  const auto& world = shared_tiny_world();
  const auto& validator = fitted_validator();
  const tensor images = world.test.images.slice_rows(0, 10);

  weighted_joint_validator weighted;
  const tensor outliers = weighted_joint_validator::make_noise_outliers(
      {20, 1, 28, 28}, 99);
  weighted.fit(*world.model, validator, world.test.images.slice_rows(20, 40),
               outliers);

  deep_validation_detector adapter{*world.model, validator};

  const auto direct = validator.evaluate(*world.model, images);
  const auto direct_weighted =
      weighted.score_batch(*world.model, validator, images);

  validator_scorer scorer{*world.model, validator};
  scorer.attach_weighted(weighted);
  scorer.attach_detector(adapter);
  scoring_service svc{scorer, stub_config(4, 16, overflow_policy::block, 500us)};
  std::vector<std::future<scoring_result>> futures;
  for (std::int64_t i = 0; i < 10; ++i) {
    futures.push_back(svc.submit(images.sample(i)));
  }
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = futures[i].get();
    EXPECT_EQ(row.joint, direct.joint[i]);  // bitwise
    EXPECT_EQ(row.prediction, direct.predictions[i]);
    EXPECT_EQ(row.invalid, validator.flags_invalid(direct.joint[i]));
    ASSERT_EQ(row.per_layer.size(), direct.per_layer.size());
    for (std::size_t l = 0; l < row.per_layer.size(); ++l) {
      EXPECT_EQ(row.per_layer[l], direct.per_layer[l][i]);
    }
    ASSERT_TRUE(row.has_weighted);
    EXPECT_EQ(row.weighted, direct_weighted[i]);
    ASSERT_EQ(row.detector_scores.size(), 1u);
    EXPECT_EQ(row.detector_scores[0], direct.joint[i]);
  }
  svc.shutdown();
}

// -- monitor_service --------------------------------------------------------

std::vector<tensor> mixed_frame_stream() {
  const auto& world = shared_tiny_world();
  const transform_chain invert{{transform_kind::complement, 0, 0}};
  std::vector<tensor> frames;
  for (int i = 0; i < 10; ++i) frames.push_back(world.test.images.sample(i));
  for (int i = 10; i < 17; ++i) {
    frames.push_back(apply_chain(world.test.images.sample(i), invert));
  }
  for (int i = 17; i < 24; ++i) frames.push_back(world.test.images.sample(i));
  return frames;
}

monitor_config serving_monitor_config() {
  monitor_config mc;
  mc.window = 6;
  mc.trigger_count = 3;
  mc.release_count = 2;
  return mc;
}

/// The acceptance test: sequential observe vs. submit through the
/// micro-batcher must be bitwise identical for every max_batch x threads
/// combination — batch composition and queue timing must not matter.
TEST(MonitorService, BitwiseIdenticalToSequentialObserve) {
  const auto& world = shared_tiny_world();
  const auto frames = mixed_frame_stream();
  const auto mc = serving_monitor_config();

  runtime_monitor reference{*world.model, fitted_validator(), mc};
  std::vector<monitor_verdict> expected;
  for (const auto& frame : frames) expected.push_back(reference.observe(frame));
  // The stream must actually exercise the latch for this test to mean much.
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [](const monitor_verdict& v) { return v.alarm; }));

  thread_count_guard guard;
  for (const int threads : {1, 8}) {
    for (const int max_batch : {1, 4, 32}) {
      set_thread_count(threads);
      runtime_monitor monitor{*world.model, fitted_validator(), mc};
      serve_config cfg;
      cfg.batch.max_batch = max_batch;
      cfg.max_delay = 2000us;
      cfg.queue_capacity = 64;
      monitor_service svc{*world.model, monitor, cfg};
      std::vector<std::future<monitor_verdict>> futures;
      for (const auto& frame : frames) futures.push_back(svc.submit(frame));
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const auto v = futures[i].get();
        EXPECT_EQ(v.discrepancy, expected[i].discrepancy)
            << "threads=" << threads << " max_batch=" << max_batch
            << " frame=" << i;
        EXPECT_EQ(v.prediction, expected[i].prediction);
        EXPECT_EQ(v.frame_invalid, expected[i].frame_invalid);
        EXPECT_EQ(v.alarm, expected[i].alarm);
      }
      svc.shutdown();
      EXPECT_EQ(monitor.frames_seen(),
                static_cast<std::int64_t>(frames.size()));
    }
  }
}

TEST(MonitorService, ResetWithRequestsInFlight) {
  const auto& world = shared_tiny_world();
  runtime_monitor monitor{*world.model, fitted_validator(),
                          serving_monitor_config()};
  // Stub scorer: every frame far above threshold, so the alarm latches.
  class invalid_scorer : public batch_scorer {
   public:
    std::vector<scoring_result> score(const tensor& frames) override {
      std::vector<scoring_result> out(
          static_cast<std::size_t>(frames.extent(0)));
      for (auto& row : out) {
        row.joint = 1e9;
        row.invalid = true;
      }
      return out;
    }
  };
  invalid_scorer scorer;
  monitor_service svc{scorer, monitor,
                      stub_config(4, 64, overflow_policy::block, 2000us)};
  std::vector<std::future<monitor_verdict>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(svc.submit(tagged_frame(i)));
  svc.reset();  // drains the in-flight frames, then clears the monitor
  for (auto& fut : futures) {
    ASSERT_EQ(fut.wait_for(0s), std::future_status::ready);
    EXPECT_TRUE(fut.get().frame_invalid);
  }
  EXPECT_EQ(monitor.frames_seen(), 0);
  EXPECT_FALSE(monitor.alarmed());
  // The service keeps serving after a reset.
  EXPECT_TRUE(svc.submit(tagged_frame(0)).get().frame_invalid);
  EXPECT_EQ(monitor.frames_seen(), 1);
  svc.shutdown();
}

TEST(MonitorService, CallerRunsPolicyIsRejectedAtConstruction) {
  const auto& world = shared_tiny_world();
  runtime_monitor monitor{*world.model, fitted_validator()};
  serve_config cfg;
  cfg.on_full = overflow_policy::caller_runs;
  EXPECT_THROW((monitor_service{*world.model, monitor, cfg}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dv
