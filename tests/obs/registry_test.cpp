#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace latol::obs {
namespace {

/// Restores the global registry around every test so obs state can never
/// leak between tests (or into other suites in this binary).
class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = set_default_registry(nullptr); }
  void TearDown() override { set_default_registry(previous_); }

 private:
  Registry* previous_ = nullptr;
};

TEST_F(RegistryTest, CountersGaugesTimersAccumulate) {
  Registry r;
  r.counter("c").add();
  r.counter("c").add(41);
  EXPECT_EQ(r.counter("c").value(), 42u);
  r.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(r.gauge("g").value(), 2.5);
  r.timer("t").add_seconds(0.25);
  r.timer("t").add_seconds(0.5);
  EXPECT_DOUBLE_EQ(r.timer("t").seconds(), 0.75);
  EXPECT_EQ(r.timer("t").count(), 2u);
}

TEST_F(RegistryTest, SlotsAreStableReferences) {
  Registry r;
  Counter& first = r.counter("stable");
  // Creating many more slots must not invalidate the first reference
  // (slots live in a deque).
  for (int i = 0; i < 1000; ++i) {
    r.counter("slot-" + std::to_string(i)).add();
  }
  first.add(7);
  EXPECT_EQ(r.counter("stable").value(), 7u);
  EXPECT_EQ(&first, &r.counter("stable"));
}

TEST_F(RegistryTest, SnapshotKeepsCreationOrder) {
  Registry r;
  r.counter("b").add(2);
  r.counter("a").add(1);
  r.gauge("g").set(3.0);
  r.timer("t").add_seconds(1.0);
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "b");  // creation order, not sorted
  EXPECT_EQ(s.counters[0].value, 2u);
  EXPECT_EQ(s.counters[1].name, "a");
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 3.0);
  ASSERT_EQ(s.timers.size(), 1u);
  EXPECT_EQ(s.timers[0].count, 1u);
}

TEST_F(RegistryTest, HelpersAreNoOpsWithoutARegistry) {
  ASSERT_EQ(default_registry(), nullptr);
  // Must not crash or allocate a registry behind our back.
  count("nobody.listening");
  gauge_set("nobody.listening", 1.0);
  time_add("nobody.listening", 1.0);
  { ScopedTimer t("nobody.listening"); }
  EXPECT_EQ(default_registry(), nullptr);
}

TEST_F(RegistryTest, HelpersFeedTheInstalledRegistry) {
  Registry r;
  Registry* old = set_default_registry(&r);
  EXPECT_EQ(old, nullptr);
  count("hits", 3);
  gauge_set("depth", 4.0);
  time_add("phase", 0.5);
  { ScopedTimer t("scoped"); }
  set_default_registry(nullptr);
  count("hits", 100);  // after removal: dropped
  EXPECT_EQ(r.counter("hits").value(), 3u);
  EXPECT_DOUBLE_EQ(r.gauge("depth").value(), 4.0);
  EXPECT_EQ(r.timer("phase").count(), 1u);
  EXPECT_EQ(r.timer("scoped").count(), 1u);
  EXPECT_GE(r.timer("scoped").seconds(), 0.0);
}

TEST_F(RegistryTest, ConcurrentUpdatesAreExact) {
  Registry r;
  set_default_registry(&r);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        count("shared");
        // Slot creation from several threads at once must also be safe.
        count("per-thread-" + std::to_string(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  set_default_registry(nullptr);
  EXPECT_EQ(r.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(r.counter("per-thread-" + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kPerThread));
  }
}

TEST_F(RegistryTest, HistogramBucketsObservationsByLogBound) {
  Registry r;
  Histogram& h = r.histogram("h");
  // Bucket i covers (1e-6 * 2^(i-1), 1e-6 * 2^i]; bucket 0 is <= 1e-6.
  h.observe(0.0);             // bucket 0
  h.observe(1e-6);            // bucket 0 (inclusive upper bound)
  h.observe(1.1e-6);          // bucket 1
  h.observe(1e9);             // overflow bucket
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(Histogram::kFiniteBuckets), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 1e9 + 2.1e-6, 1.0);
  EXPECT_DOUBLE_EQ(Histogram::upper_bound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::upper_bound(10), 1e-6 * 1024.0);
}

TEST_F(RegistryTest, HistogramSurvivesConcurrentObserve) {
  Registry r;
  Histogram& h = r.histogram("mt");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1e-4);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.sum(), kThreads * kPerThread * 1e-4, 1e-6);
}

TEST_F(RegistryTest, SnapshotAndPrometheusCarryHistograms) {
  Registry r;
  r.histogram("lat.seconds").observe(2e-6);
  r.histogram("lat.seconds").observe(0.5);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "lat.seconds");
  EXPECT_EQ(snap.histograms[0].count, 2u);
  ASSERT_EQ(snap.histograms[0].buckets.size(),
            Histogram::kFiniteBuckets + 1);

  const std::string prom = to_prometheus(snap, "latol_");
  EXPECT_NE(prom.find("# TYPE latol_lat_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("latol_lat_seconds_bucket{le=\"1e-06\"} 0"),
            std::string::npos);
  // Buckets are cumulative, so the +Inf bucket equals the count.
  EXPECT_NE(prom.find("latol_lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("latol_lat_seconds_count 2"), std::string::npos);
  EXPECT_NE(prom.find("latol_lat_seconds_sum 0.500002"), std::string::npos);
}

TEST_F(RegistryTest, ObserveHelperIsInertWithoutARegistry) {
  observe("nobody.listens", 1.0);  // must not crash
  Registry r;
  Registry* const previous = set_default_registry(&r);
  observe("somebody.listens", 1.0);
  set_default_registry(previous);
  EXPECT_EQ(r.histogram("somebody.listens").count(), 1u);
}

TEST(PeakRss, ReportsThisProcessHighWaterMark) {
  const long before = peak_rss_kb();
  EXPECT_GT(before, 0);
  // A high-water mark never falls, whatever the process frees.
  { std::vector<char> buffer(1 << 20, 1); }
  EXPECT_GE(peak_rss_kb(), before);
}

TEST(ConvergenceTrace, RecordsResidualsInOrder) {
  ConvergenceTrace trace;
  trace.record(0.5);
  trace.record(0.25);
  trace.record(0.125);
  ASSERT_EQ(trace.residuals().size(), 3u);
  EXPECT_DOUBLE_EQ(trace.residuals()[0], 0.5);
  EXPECT_DOUBLE_EQ(trace.residuals()[2], 0.125);
  EXPECT_EQ(trace.total_recorded(), 3u);
  EXPECT_FALSE(trace.truncated());
  EXPECT_FALSE(trace.empty());
  trace.clear();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.total_recorded(), 0u);
}

TEST(ConvergenceTrace, CapsStorageButKeepsCounting) {
  ConvergenceTrace trace(4);
  for (int i = 0; i < 10; ++i) trace.record(static_cast<double>(i));
  EXPECT_EQ(trace.capacity(), 4u);
  ASSERT_EQ(trace.residuals().size(), 4u);
  EXPECT_DOUBLE_EQ(trace.residuals()[3], 3.0);  // first 4 kept, not last 4
  EXPECT_EQ(trace.total_recorded(), 10u);
  EXPECT_TRUE(trace.truncated());
}

}  // namespace
}  // namespace latol::obs
