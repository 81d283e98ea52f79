#include "eval/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace dv {
namespace {

TEST(RocAuc, PerfectSeparation) {
  const std::vector<double> pos{3.0, 4.0, 5.0};
  const std::vector<double> neg{0.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 1.0);
}

TEST(RocAuc, PerfectlyInverted) {
  const std::vector<double> pos{0.0, 1.0};
  const std::vector<double> neg{2.0, 3.0};
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 0.0);
}

TEST(RocAuc, ChanceForIdenticalDistributions) {
  const std::vector<double> pos{1.0, 2.0, 3.0};
  const std::vector<double> neg{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 0.5);
}

TEST(RocAuc, HandComputedMixedCase) {
  // pos {2, 0}, neg {1}: pairs (2>1)=1, (0<1)=0 -> AUC = 0.5.
  const std::vector<double> pos{2.0, 0.0};
  const std::vector<double> neg{1.0};
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 0.5);
}

TEST(RocAuc, TiesCountHalf) {
  const std::vector<double> pos{1.0};
  const std::vector<double> neg{1.0};
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 0.5);
  const std::vector<double> pos2{1.0, 2.0};
  const std::vector<double> neg2{1.0};
  // Pairs: (1 vs 1) = 0.5, (2 vs 1) = 1 -> AUC = 0.75.
  EXPECT_DOUBLE_EQ(roc_auc(pos2, neg2), 0.75);
}

TEST(RocAuc, UnbalancedSets) {
  const std::vector<double> pos{10.0};
  const std::vector<double> neg{1.0, 2.0, 3.0, 4.0, 11.0};
  // 4 of 5 pairs won -> 0.8.
  EXPECT_DOUBLE_EQ(roc_auc(pos, neg), 0.8);
}

TEST(RocAuc, EmptyThrows) {
  const std::vector<double> some{1.0};
  const std::vector<double> none{};
  EXPECT_THROW(roc_auc(none, some), std::invalid_argument);
  EXPECT_THROW(roc_auc(some, none), std::invalid_argument);
}

TEST(Rates, TprFprAtThreshold) {
  const std::vector<double> pos{0.1, 0.6, 0.9};
  const std::vector<double> neg{0.0, 0.2, 0.7};
  EXPECT_DOUBLE_EQ(tpr_at_threshold(pos, 0.5), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(fpr_at_threshold(neg, 0.5), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(tpr_at_threshold(pos, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(fpr_at_threshold(neg, -1.0), 1.0);
}

TEST(Thresholds, CentroidMidpoint) {
  const std::vector<double> pos{2.0, 4.0};  // mean 3
  const std::vector<double> neg{0.0, -2.0}; // mean -1
  EXPECT_DOUBLE_EQ(centroid_threshold(pos, neg), 1.0);
}

TEST(Thresholds, ForFprHitsTarget) {
  std::vector<double> neg;
  for (int i = 0; i < 100; ++i) neg.push_back(static_cast<double>(i));
  const double thr = threshold_for_fpr(neg, 0.05);
  EXPECT_LE(fpr_at_threshold(neg, thr), 0.05 + 1e-12);
  // And it is not absurdly conservative: at most one extra step.
  EXPECT_GE(fpr_at_threshold(neg, thr), 0.03);
}

TEST(Thresholds, ForFprZeroFlagsNothing) {
  const std::vector<double> neg{1.0, 2.0, 3.0};
  const double thr = threshold_for_fpr(neg, 0.0);
  EXPECT_DOUBLE_EQ(fpr_at_threshold(neg, thr), 0.0);
}

TEST(Thresholds, BadFprThrows) {
  const std::vector<double> neg{1.0};
  EXPECT_THROW(threshold_for_fpr(neg, -0.1), std::invalid_argument);
  EXPECT_THROW(threshold_for_fpr(neg, 1.1), std::invalid_argument);
}

TEST(RocCurve, EndpointsAndMonotonicity) {
  const std::vector<double> pos{0.8, 0.9, 0.7};
  const std::vector<double> neg{0.1, 0.5, 0.3};
  const auto curve = roc_curve(pos, neg);
  EXPECT_DOUBLE_EQ(curve.front().fpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().tpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().fpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().tpr, 1.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].fpr, curve[i - 1].fpr);
    EXPECT_GE(curve[i].tpr, curve[i - 1].tpr);
    EXPECT_LT(curve[i].threshold, curve[i - 1].threshold);
  }
}

TEST(RocCurve, AreaMatchesRankAuc) {
  const std::vector<double> pos{3.0, 1.5, 2.2, 0.4, 2.9};
  const std::vector<double> neg{0.1, 1.9, 0.8, 2.5};
  const auto curve = roc_curve(pos, neg);
  EXPECT_NEAR(auc_from_curve(curve), roc_auc(pos, neg), 1e-12);
}

TEST(RocCurve, TiesShareOnePoint) {
  const std::vector<double> pos{1.0, 1.0};
  const std::vector<double> neg{1.0};
  const auto curve = roc_curve(pos, neg);
  // (0,0) start plus a single combined step to (1,1).
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_NEAR(auc_from_curve(curve), 0.5, 1e-12);
}

TEST(RocCurve, EmptyThrows) {
  const std::vector<double> some{1.0};
  const std::vector<double> none{};
  EXPECT_THROW(roc_curve(none, some), std::invalid_argument);
}

TEST(Mean, Basic) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.0);
  const std::vector<double> none{};
  EXPECT_THROW(mean(none), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// util/metrics.h registry + util/trace.h span tests. The registry and the
// trace tree are process-wide, so every test runs enabled with a frozen
// clock and restores the disabled default afterwards.

class MetricsRegistry : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    metrics::set_clock_frozen(true);
    metrics::reset();
    trace_reset();
  }
  void TearDown() override {
    metrics::reset();
    trace_reset();
    metrics::set_clock_frozen(false);
    metrics::set_enabled(false);
  }
};

TEST_F(MetricsRegistry, CounterAccumulatesAndIsIdempotentByName) {
  metrics::counter* c = metrics::get_counter("dv_test_events_total");
  ASSERT_NE(c, nullptr);
  c->add();
  c->add(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name -> same instance; one series registered.
  EXPECT_EQ(metrics::get_counter("dv_test_events_total"), c);
  EXPECT_EQ(metrics::series_count(), 1u);
  metrics::count("dv_test_events_total", 8);
  EXPECT_EQ(c->value(), 50u);
}

TEST_F(MetricsRegistry, GaugeIsLastWriteWins) {
  metrics::gauge* g = metrics::get_gauge("dv_test_level");
  ASSERT_NE(g, nullptr);
  g->set(1.5);
  g->set(-0.25);
  EXPECT_DOUBLE_EQ(g->value(), -0.25);
}

TEST_F(MetricsRegistry, HistogramBucketsCountAndFixedPointSum) {
  const auto opts = metrics::histogram_options::linear(0.0, 1.0, 2,
                                                       /*scale=*/1000.0);
  ASSERT_EQ(opts.bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(opts.bounds[0], 0.5);
  EXPECT_DOUBLE_EQ(opts.bounds[1], 1.0);

  metrics::histogram* h = metrics::get_histogram("dv_test_seconds", opts);
  ASSERT_NE(h, nullptr);
  h->observe(0.25);  // first bucket
  h->observe(0.5);   // bounds are inclusive upper bounds -> still first
  h->observe(0.75);  // second bucket
  h->observe(2.0);   // overflow
  EXPECT_EQ(h->count(), 4u);
  const auto buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  // Sum is exact at 1/1000 resolution: 250 + 500 + 750 + 2000 ticks.
  EXPECT_DOUBLE_EQ(h->sum(), 3.5);
}

TEST_F(MetricsRegistry, HistogramSurvivesNonFiniteObservations) {
  // The monitor's discrepancy buckets; a non-finite frame scores +inf.
  metrics::histogram* h = metrics::get_histogram(
      "dv_test_nonfinite",
      metrics::histogram_options::linear(-0.5, 2.0, 10, /*scale=*/1048576.0));
  ASSERT_NE(h, nullptr);
  h->observe(1.0);
  h->observe(std::numeric_limits<double>::infinity());
  h->observe(-std::numeric_limits<double>::infinity());
  h->observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 1.0);  // only 1.0 has ticks that fit in int64
  const auto buckets = h->bucket_counts();
  EXPECT_EQ(buckets.front(), 1u);  // -Inf
  EXPECT_EQ(buckets.back(), 2u);   // +Inf and NaN
  // A finite value whose ticks overflow int64 is counted but not summed.
  h->observe(1e300);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 1.0);
}

TEST_F(MetricsRegistry, KindMismatchThrows) {
  ASSERT_NE(metrics::get_counter("dv_test_series"), nullptr);
  EXPECT_THROW(metrics::get_gauge("dv_test_series"), std::logic_error);
  EXPECT_THROW(metrics::get_histogram("dv_test_series",
                                      metrics::histogram_options::latency()),
               std::logic_error);
}

TEST_F(MetricsRegistry, DisabledModeLeavesRegistryEmpty) {
  metrics::set_enabled(false);
  EXPECT_EQ(metrics::get_counter("dv_test_off_total"), nullptr);
  EXPECT_EQ(metrics::get_gauge("dv_test_off"), nullptr);
  EXPECT_EQ(metrics::get_histogram("dv_test_off_seconds",
                                   metrics::histogram_options::latency()),
            nullptr);
  metrics::count("dv_test_off_total");
  metrics::set("dv_test_off", 1.0);
  metrics::observe("dv_test_off_seconds",
                   metrics::histogram_options::latency(), 0.1);
  { trace_span span{"off.span"}; }
  EXPECT_EQ(metrics::series_count(), 0u);
  EXPECT_TRUE(trace_snapshot().empty());
  EXPECT_FALSE(metrics::write_artifacts("artifacts"));
}

TEST_F(MetricsRegistry, SnapshotMatchesPrometheusGolden) {
  metrics::count("dv_demo_frames_total", 3);
  metrics::set("dv_demo_level", 1.5);
  const auto opts =
      metrics::histogram_options::linear(0.0, 1.0, 2, /*scale=*/1000.0);
  metrics::observe("dv_demo_latency_seconds{op=\"fit\"}", opts, 0.25);
  metrics::observe("dv_demo_latency_seconds{op=\"fit\"}", opts, 0.75);
  metrics::observe("dv_demo_latency_seconds{op=\"fit\"}", opts, 2.0);

  const std::string prom = metrics::collect().to_prometheus();
  const std::string expected =
      "# TYPE dv_demo_frames_total counter\n"
      "dv_demo_frames_total 3\n"
      "# TYPE dv_demo_latency_seconds histogram\n"
      "dv_demo_latency_seconds_bucket{op=\"fit\",le=\"0.5\"} 1\n"
      "dv_demo_latency_seconds_bucket{op=\"fit\",le=\"1\"} 2\n"
      "dv_demo_latency_seconds_bucket{op=\"fit\",le=\"+Inf\"} 3\n"
      "dv_demo_latency_seconds_sum{op=\"fit\"} 3\n"
      "dv_demo_latency_seconds_count{op=\"fit\"} 3\n"
      "# TYPE dv_demo_level gauge\n"
      "dv_demo_level 1.5\n";
  EXPECT_EQ(prom, expected);
}

TEST_F(MetricsRegistry, SnapshotMatchesJsonGolden) {
  metrics::count("dv_demo_frames_total", 3);
  metrics::set("dv_demo_level", 1.5);
  const std::string json = metrics::collect().to_json();
  const std::string expected =
      "{\"version\":1,\"metrics\":[\n"
      "  {\"name\":\"dv_demo_frames_total\",\"kind\":\"counter\","
      "\"value\":3},\n"
      "  {\"name\":\"dv_demo_level\",\"kind\":\"gauge\",\"value\":1.5}\n"
      "]}\n";
  EXPECT_EQ(json, expected);
}

TEST_F(MetricsRegistry, SnapshotsBitwiseIdenticalAcrossThreadCounts) {
  const auto opts =
      metrics::histogram_options::linear(-0.5, 2.0, 10, /*scale=*/1048576.0);
  std::vector<std::string> exports;
  for (const int threads : {1, 8}) {
    set_thread_count(threads);
    metrics::reset();
    metrics::counter* images = metrics::get_counter("dv_test_images_total");
    metrics::histogram* disc =
        metrics::get_histogram("dv_test_discrepancy", opts);
    ASSERT_NE(images, nullptr);
    ASSERT_NE(disc, nullptr);
    // dv:parallel-safe(counters and histograms shard per thread)
    parallel_for(0, 10000, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        images->add();
        disc->observe(static_cast<double>(i % 23) * 0.1 - 0.4);
      }
    });
    metrics::set("dv_test_last_loss", 0.125);
    exports.push_back(metrics::collect().to_json() +
                      metrics::collect().to_prometheus());
  }
  set_thread_count(0);
  ASSERT_EQ(exports.size(), 2u);
  EXPECT_EQ(exports[0], exports[1]);
}

TEST_F(MetricsRegistry, TraceTreeNestsAndAggregates) {
  {
    trace_span outer{"unit.outer"};
    for (int i = 0; i < 3; ++i) {
      trace_span inner{"unit.inner"};
    }
  }
  { trace_span outer{"unit.outer"}; }

  const auto tree = trace_snapshot();
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree[0].name, "unit.outer");
  EXPECT_EQ(tree[0].calls, 2u);
  ASSERT_EQ(tree[0].children.size(), 1u);
  EXPECT_EQ(tree[0].children[0].name, "unit.inner");
  EXPECT_EQ(tree[0].children[0].calls, 3u);
  // Frozen clock -> durations are exactly zero.
  EXPECT_DOUBLE_EQ(tree[0].total_seconds, 0.0);

  const std::string report = trace_report();
  EXPECT_NE(report.find("unit.outer"), std::string::npos);
  EXPECT_NE(report.find("unit.inner"), std::string::npos);

  trace_reset();
  EXPECT_TRUE(trace_snapshot().empty());
  EXPECT_EQ(trace_report(), "");
}

}  // namespace
}  // namespace dv
