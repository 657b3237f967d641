// Tests for the benchmark's own arithmetic (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(Iota(101), 0.9), 91.0);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
}

TEST(RegularizedBeta, MatchesClosedForms) {
  EXPECT_DOUBLE_EQ(RegularizedBeta(0.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedBeta(1.0, 2.0, 3.0), 1.0);
  EXPECT_NEAR(RegularizedBeta(0.37, 1.0, 1.0), 0.37, 1e-12);
  EXPECT_NEAR(RegularizedBeta(0.5, 2.0, 2.0), 0.5, 1e-12);
  // Beta(2, 3) at 0.3: P(at least 2 of 4 Bernoulli(0.3) succeed).
  EXPECT_NEAR(RegularizedBeta(0.3, 2.0, 3.0), 0.3483, 1e-12);
  // Large shapes, as for p99 of 100000 samples: the mean is the median
  // to within a few percent.
  EXPECT_NEAR(RegularizedBeta(0.99, 99000.99, 1000.01), 0.5, 0.02);
}

TEST(HarrellDavis, WeighsOrderStatisticsAroundTheQuantile) {
  EXPECT_DOUBLE_EQ(HarrellDavis({}, 0.5), 0.0);
  EXPECT_NEAR(HarrellDavis({7.0}, 0.99), 7.0, 1e-12);
  // Symmetric sample: the median is the middle value.
  EXPECT_NEAR(HarrellDavis(Iota(101), 0.5), 51.0, 1e-9);
  // For 1..n it estimates n·q + 1/2.
  EXPECT_NEAR(HarrellDavis(Iota(1000), 0.9), 900.5, 0.05);
  EXPECT_NEAR(HarrellDavis(Iota(100000), 0.99), 99000.5, 0.05);
  // Input order does not matter.
  std::vector<double> reversed = Iota(1000);
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_DOUBLE_EQ(HarrellDavis(reversed, 0.9), HarrellDavis(Iota(1000), 0.9));
}

TEST(SupportedQuantile, KeepsTenSamplesBeyondTheReportedPercentile) {
  // p99 needs 1000 samples; fewer lower the reported percentile.
  EXPECT_DOUBLE_EQ(SupportedQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(100000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(500, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(SupportedQuantile(100, 0.9), 0.9);
  EXPECT_DOUBLE_EQ(SupportedQuantile(50, 0.9), 0.8);
  // Too few samples for any tail: the median stands in.
  EXPECT_DOUBLE_EQ(SupportedQuantile(15, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(0, 0.99), 0.5);
}

TEST(SupportedQuantile, ReportedValueHasTenSamplesAtOrBeyondIt) {
  for (const std::size_t n : {20u, 37u, 100u, 500u, 999u, 1000u, 4321u}) {
    const std::vector<double> values = Iota(n);
    const TailStat tail = Tail(values, 0.99);
    std::size_t beyond = 0;
    for (const double v : values) beyond += v >= tail.value ? 1 : 0;
    EXPECT_GE(beyond, kMinBeyond) << "n=" << n;
    EXPECT_EQ(tail.n, n);
  }
}

TEST(SlicedTail, MediansPerSliceQuantilesWhenEachSliceSupportsThem) {
  // 5000 samples: p99 needs 1000 per slice, so five slices. One slice
  // (samples due 2000..2999) stalls; the median of the slice p99s ignores
  // it, while the pooled p99 lands inside the stall.
  std::vector<std::pair<double, double>> samples;
  for (std::size_t i = 0; i < 5000; ++i) {
    const double value = (i >= 2000 && i < 3000) ? 100.0 : (i % 1000) / 100.0;
    samples.emplace_back(static_cast<double>(i), value);
  }
  const TailStat sliced = SlicedTail(samples, 0.99, 9);
  EXPECT_EQ(sliced.n, 5000u);
  EXPECT_DOUBLE_EQ(sliced.q, 0.99);
  EXPECT_NEAR(sliced.value, 9.895, 0.001);  // p99 of 0.00..9.99
  std::vector<double> pooled;
  for (const auto& s : samples) pooled.push_back(s.second);
  EXPECT_NEAR(Tail(pooled, 0.99).value, 100.0, 1e-9);
  // Due order decides the slices, not input order.
  std::reverse(samples.begin(), samples.end());
  EXPECT_DOUBLE_EQ(SlicedTail(samples, 0.99, 9).value, sliced.value);
  // The median needs only 20 per slice, so max_slices caps the count; the
  // stalled share of the slices is too small to move their median.
  EXPECT_LT(SlicedTail(samples, 0.5, 9).value, 10.0);
}

TEST(SlicedTail, FallsBackToThePooledTailOnSmallSamples) {
  // 2500 samples hold only two p99 slices: pooled, under the count rule.
  std::vector<std::pair<double, double>> samples;
  std::vector<double> values;
  for (std::size_t i = 0; i < 2500; ++i) {
    samples.emplace_back(static_cast<double>(i), static_cast<double>(i));
    values.push_back(static_cast<double>(i));
  }
  const TailStat sliced = SlicedTail(samples, 0.99, 9);
  const TailStat pooled = Tail(values, 0.99);
  EXPECT_DOUBLE_EQ(sliced.value, pooled.value);
  EXPECT_DOUBLE_EQ(sliced.q, pooled.q);
  EXPECT_DOUBLE_EQ(SlicedTail({}, 0.99, 9).value, 0.0);
}

TEST(WindowedRate, TheMedianWindowIgnoresAStall) {
  // 100 events/s for 10 s, none from 4 s to 5 s: 90/s over the phase, but
  // 9 of the 10 one-second windows read 100/s.
  std::vector<double> times;
  for (std::size_t i = 0; i < 1000; ++i) {
    const double t = 10.0 + 0.01 * static_cast<double>(i) + 0.005;
    if (t < 14.0 || t >= 15.0) times.push_back(t);
  }
  EXPECT_NEAR(WindowedRate(times, 10.0, 20.0, 1.0), 100.0, 1e-9);
  // Events outside the phase do not count.
  times.push_back(9.5);
  times.push_back(20.0);
  EXPECT_NEAR(WindowedRate(times, 10.0, 20.0, 1.0), 100.0, 1e-9);
  // A phase shorter than one window is one window: the plain rate.
  EXPECT_NEAR(WindowedRate(times, 10.0, 10.5, 1.0), 100.0, 1e-9);
  EXPECT_NEAR(WindowedRate(times, 10.0, 20.0, 20.0), 90.0, 1e-9);
  EXPECT_DOUBLE_EQ(WindowedRate(times, 10.0, 10.0, 1.0), 0.0);
}

TEST(PoissonSchedule, SameSeedSameScheduleAndTheRateHolds) {
  const auto a = PoissonSchedule(1000.0, 5.0, 42);
  const auto b = PoissonSchedule(1000.0, 5.0, 42);
  const auto c = PoissonSchedule(1000.0, 5.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // 5000 expected arrivals; a Poisson count is within 5 sigma (~354).
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 354.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_GT(a.front(), 0.0);
  EXPECT_LT(a.back(), 5.0);
  EXPECT_TRUE(PoissonSchedule(0.0, 5.0, 1).empty());
}

TEST(OpenLoopTally, TimesFromTheDueTimeAndKeepsLatenessApart) {
  OpenLoopTally tally(/*limit_s=*/0.010);
  // On time, 2 ms of service.
  tally.Completed(1.000, 1.000, 1.002, true);
  // Sent 5 ms late, the same 2 ms of service: the client waited 7 ms.
  tally.Completed(2.000, 2.005, 2.007, true);
  // Sent 9 ms late: 2 ms of service takes it past the 10 ms limit.
  tally.Completed(3.000, 3.009, 3.011, true);
  // A wrong answer and a rejection miss regardless of time.
  tally.Completed(4.000, 4.000, 4.001, false);
  tally.Rejected(5.000, 5.000);

  EXPECT_EQ(tally.sent(), 5u);
  EXPECT_EQ(tally.misses(), 3u);
  EXPECT_DOUBLE_EQ(tally.miss_share(), 0.6);
  ASSERT_EQ(tally.latencies_s().size(), 3u);
  EXPECT_NEAR(tally.latencies_s()[0], 0.002, 1e-9);
  EXPECT_NEAR(tally.latencies_s()[1], 0.007, 1e-9);
  EXPECT_NEAR(tally.latencies_s()[2], 0.011, 1e-9);
  EXPECT_NEAR(tally.sent_latencies_s()[1], 0.002, 1e-9);
  ASSERT_EQ(tally.lags_s().size(), 5u);
  EXPECT_NEAR(tally.lags_s()[1], 0.005, 1e-9);
  EXPECT_NEAR(tally.lags_s()[2], 0.009, 1e-9);
  // Early sends are not negative lateness.
  OpenLoopTally early(1.0);
  early.Completed(1.0, 0.999, 1.0, true);
  EXPECT_DOUBLE_EQ(early.lags_s()[0], 0.0);
}

TEST(SelfTimes, SubtractsTheUnionOfClippedChildren) {
  const std::vector<Span> spans = {
      {1, 0, 7, "request", 0, 100},
      {2, 1, 7, "submit", 0, 10},
      {3, 1, 7, "wait", 40, 70},
      {4, 1, 7, "poll", 60, 80},     // overlaps "wait": counted once
      {5, 1, 7, "late", 90, 150},    // clipped at the parent's end
      {6, 0, 0, "other", 200, 260},  // a root with no children
      {7, 99, 0, "orphan", 5, 6},    // unknown parent: ignored
  };
  const auto self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  // 100 - (10 + [40,80) + [90,100)) = 100 - 60.
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[3], 20);
  EXPECT_EQ(self[5], 60);
  EXPECT_EQ(self[6], 1);
}

TEST(LayerSumOverService, WeightsModelsByTheBatchesTheyServed) {
  EXPECT_DOUBLE_EQ(LayerSumOverService({}), 0.0);
  EXPECT_DOUBLE_EQ(LayerSumOverService({{100, 2.0, 2.0}}), 1.0);
  // 300 batches of a 10 ms model whose layers sum to 9 ms, 100 of a 1 ms
  // model whose layers sum to 1.2 ms: (2700 + 120) / (3000 + 100).
  EXPECT_DOUBLE_EQ(LayerSumOverService({{300, 9.0, 10.0}, {100, 1.2, 1.0}}),
                   2820.0 / 3100.0);
  // A model that served nothing does not count.
  EXPECT_DOUBLE_EQ(LayerSumOverService({{0, 50.0, 1.0}, {10, 1.0, 2.0}}),
                   0.5);
}

}  // namespace
}  // namespace perfbench
