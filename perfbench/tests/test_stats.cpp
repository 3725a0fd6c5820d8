// Unit tests for the benchmark's own logic: the tail-percentile rule,
// failure accounting, the open-loop schedule and generator lag, the rate
// ladder behind max_rps_at_slo, and span self time.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

}  // namespace

TEST(Percentile, NearestRank) {
  const std::vector<double> v = iota(100);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  // 1000 samples: p99 has exactly 10 beyond it.
  Tail t = tail_percentile(iota(1000));
  EXPECT_TRUE(t.supported);
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.n, 1000u);

  // 999 samples: p99 would leave 9 beyond, so p98 it is.
  t = tail_percentile(iota(999));
  EXPECT_EQ(t.pct, 98);
  EXPECT_GE(999u - static_cast<std::size_t>(t.value), 10u);

  // 40 calls: the highest percentile with 10 beyond is p75.
  t = tail_percentile(iota(40));
  EXPECT_EQ(t.pct, 75);
  EXPECT_EQ(t.value, 30.0);
}

TEST(TailPercentile, EveryQualifyingChoiceHasTenBeyond) {
  for (std::size_t n = 11; n < 400; ++n) {
    const std::vector<double> v = iota(n);
    const Tail t = tail_percentile(v);
    ASSERT_TRUE(t.supported) << n;
    const auto beyond = static_cast<std::size_t>(n - static_cast<std::size_t>(t.value));
    EXPECT_GE(beyond, 10u) << n;
    if (t.pct < 99) {
      // One percentile higher would leave fewer than ten.
      const Tail higher = tail_percentile(v, t.pct + 1);
      EXPECT_TRUE(!higher.supported || higher.pct == t.pct) << n;
    }
  }
}

TEST(TailPercentile, TooFewSamplesReportsTheMaximum) {
  const Tail t = tail_percentile(iota(10));
  EXPECT_FALSE(t.supported);
  EXPECT_EQ(t.pct, 100);
  EXPECT_EQ(t.value, 10.0);
}

TEST(WindowPercentiles, OneStallMovesOneWindow) {
  std::vector<double> at, v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 100; ++i) {
      at.push_back(w + i / 100.0);
      v.push_back(w == 2 && i >= 50 ? 1000.0 : 1.0 + i / 100.0);  // window 2 stalls
    }
  }
  at.push_back(5.5);  // a window of one sample reads NaN
  v.push_back(7.0);
  const std::vector<double> p99 = window_percentiles(at, v, 1.0, 99.0, 10);
  ASSERT_EQ(p99.size(), 6u);
  EXPECT_EQ(p99[2], 1000.0);
  EXPECT_TRUE(std::isnan(p99[5]));
  EXPECT_NEAR(median_kept(p99, std::vector<bool>(6, true)), 1.98, 1e-12);
}

TEST(WindowPercentiles, MedianKeptFallsBackToAll) {
  const std::vector<double> v = {1.0, 2.0, 30.0, 40.0, std::nan("")};
  EXPECT_EQ(median_kept(v, {true, true, false, false, true}), 1.0);  // 1, 2 kept
  EXPECT_EQ(median_kept(v, {false, false, false, false, true}), 2.0);  // none: all
  EXPECT_EQ(median_kept(v, {}), 2.0);
}

TEST(WindowPercentiles, KeepsCleanIntervalsOrTheLeastStolenHalf) {
  // Most intervals clean: exactly the clean ones are kept.
  EXPECT_EQ(keep_least_stolen({0.0, 0.5, 0.01, 0.0}, 0.02),
            (std::vector<bool>{true, false, true, true}));
  // Steal everywhere: the least-stolen half, ties in order.
  EXPECT_EQ(keep_least_stolen({0.3, 0.1, 0.2, 0.1, 0.4}, 0.02),
            (std::vector<bool>{false, true, true, true, false}));
  EXPECT_TRUE(keep_least_stolen({}, 0.02).empty());
}

TEST(Ledger, EachUnitCountsExactlyOnce) {
  Ledger l;
  // A shed request that would also have expired and been wrong counts once, as shed.
  l.record(classify(true, true, true, true));
  l.record(classify(false, true, true, false));  // expired
  l.record(classify(false, false, true, true));  // failed beats wrong
  l.record(classify(false, false, false, true));  // wrong
  l.record(classify(false, false, false, false), 6);  // six good
  EXPECT_EQ(l.attempted, 10u);
  EXPECT_EQ(l.shed, 1u);
  EXPECT_EQ(l.expired, 1u);
  EXPECT_EQ(l.failed, 1u);
  EXPECT_EQ(l.wrong, 1u);
  EXPECT_EQ(l.ok, 6u);
  EXPECT_EQ(l.bad(), 4u);
  EXPECT_EQ(l.ok + l.bad(), l.attempted);
  EXPECT_DOUBLE_EQ(l.error_rate(), 0.4);

  Ledger m;
  m.record(Outcome::kOk, 10);
  l.merge(m);
  EXPECT_EQ(l.attempted, 20u);
  EXPECT_DOUBLE_EQ(l.error_rate(), 0.2);
  EXPECT_EQ(Ledger{}.error_rate(), 0.0);
}

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = poisson_schedule(7, 1000.0, 2.0);
  const auto b = poisson_schedule(7, 1000.0, 2.0);
  const auto c = poisson_schedule(8, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // About rate * seconds arrivals, increasing, inside the phase.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 200.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 2.0);
  EXPECT_TRUE(poisson_schedule(1, 0.0, 1.0).empty());
}

TEST(GeneratorLag, MeasuredFromTheDueTime) {
  const std::vector<double> due = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> sub = {0.0, 1.5, 2.25, 2.9};  // the last one early
  const auto lag = generator_lag(due, sub);
  ASSERT_EQ(lag.size(), 4u);
  EXPECT_EQ(lag.front(), 0.0);
  EXPECT_EQ(lag.back(), 0.5);
  EXPECT_EQ(percentile(lag, 50.0), 0.0);
  EXPECT_EQ(percentile(lag, 99.0), 0.5);
}

TEST(Ladder, StepsAreAtMostTenPercentApart) {
  const auto r = ladder_rates(1000.0, 1.05, 10);
  ASSERT_EQ(r.size(), 10u);
  for (std::size_t i = 1; i < r.size(); ++i) EXPECT_LE(r[i] / r[i - 1], 1.10 + 1e-12);
}

TEST(Ladder, SelectsTheHighestRateMeetingTheLimit) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<LadderStep> steps = {
      {1000, 1000, 0.2e-3},
      {1050, 1049, 0.9e-3},
      {1100, 1000, 0.5e-3},  // achieved < 98% of offered: a growing backlog
      {1155, 1150, 1.2e-3},  // p99 over 1 ms
      {1210, 1200, inf},     // failures count as infinite latency
  };
  EXPECT_EQ(select_max_at_slo(steps), 1);
  EXPECT_TRUE(ladder_done(steps, 2));
  EXPECT_FALSE(ladder_done(std::vector<LadderStep>(steps.begin(), steps.begin() + 3), 2));
  // Exactly at the limit passes.
  EXPECT_TRUE(meets_slo({1000, 980, 1e-3}, 1e-3, 0.98));
  // Order does not matter; none passing gives -1.
  std::swap(steps[0], steps[4]);
  EXPECT_EQ(select_max_at_slo(steps), 1);
  EXPECT_EQ(select_max_at_slo({{1000, 10, 0.1e-3}}), -1);
}

TEST(RelErr, RegistryConvention) {
  EXPECT_DOUBLE_EQ(rel_err(1.5, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_err(0.001, 0.0), 0.001);  // absolute below 1
  EXPECT_DOUBLE_EQ(rel_err(110.0, 100.0), 0.1);
  EXPECT_TRUE(std::isinf(rel_err(std::nan(""), 1.0)));
}

TEST(Tracer, SelfTimeSubtractsChildCoverage) {
  Tracer tr(true);
  const auto root = tr.add("bench.call", 0, 100);
  tr.add("engine.price", 10, 60, root, 7);
  tr.add("core.convert", 50, 70, root, 7);  // overlaps the previous child
  tr.add("bench.oracle", 90, 130, root);   // sticks out past the parent: clipped
  const auto self = tr.self_ns_by_name();
  EXPECT_EQ(self.at("bench.call"), 100.0 - (70 - 10) - (100 - 90));
  EXPECT_EQ(self.at("engine.price"), 50.0);
  EXPECT_EQ(self.at("core.convert"), 20.0);
  EXPECT_EQ(self.at("bench.oracle"), 40.0);

  Tracer off(false);
  EXPECT_EQ(off.add("bench.call", 0, 1), -1);
  EXPECT_TRUE(off.spans().empty());
}
