// Tests for the binomial-tree kernel (Fig. 5): convergence to the analytic
// Black–Scholes price, equivalence of all optimization levels (including
// the register-tiled variant at awkward step counts), and American-option
// properties.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

core::OptionSpec euro_put(double s = 100, double k = 100, double t = 1, double r = 0.05,
                          double v = 0.2) {
  return {s, k, t, r, v, core::OptionType::kPut, core::ExerciseStyle::kEuropean};
}

TEST(Binomial, ConvergesToBlackScholes) {
  const core::OptionSpec o = euro_put(100, 110, 1.5, 0.04, 0.3);
  const double exact = core::black_scholes_price(o);
  // CRR error oscillates (sawtooth in N as the strike crosses lattice
  // nodes), so assert the O(1/N) envelope rather than monotone decay.
  for (int steps : {64, 256, 1024, 4096}) {
    const double smoothed = 0.5 * (binomial::price_one_reference(o, steps) +
                                   binomial::price_one_reference(o, steps + 1));
    EXPECT_LT(std::fabs(smoothed - exact), 2.0 / steps) << steps;
  }
  EXPECT_NEAR(binomial::price_one_reference(o, 8192), exact, 3e-4);
}

TEST(Binomial, CallAndPutBothConverge) {
  for (auto type : {core::OptionType::kCall, core::OptionType::kPut}) {
    core::OptionSpec o = euro_put(95, 100, 0.75, 0.06, 0.25);
    o.type = type;
    const double exact = core::black_scholes_price(o);
    EXPECT_NEAR(binomial::price_one_reference(o, 2048), exact, 2e-3);
  }
}

TEST(Binomial, AmericanCallEqualsEuropeanWithoutDividends) {
  core::OptionSpec eu = euro_put();
  eu.type = core::OptionType::kCall;
  core::OptionSpec am = eu;
  am.style = core::ExerciseStyle::kAmerican;
  EXPECT_NEAR(binomial::price_one_reference(eu, 1024), binomial::price_one_reference(am, 1024),
              1e-10);
}

TEST(Binomial, AmericanPutWorthMoreThanEuropean) {
  core::OptionSpec eu = euro_put(100, 110, 2.0, 0.08, 0.25);
  core::OptionSpec am = eu;
  am.style = core::ExerciseStyle::kAmerican;
  const double pe = binomial::price_one_reference(eu, 1024);
  const double pa = binomial::price_one_reference(am, 1024);
  EXPECT_GT(pa, pe + 1e-4);
}

TEST(Binomial, AmericanPutAtLeastIntrinsic) {
  for (double spot : {60.0, 80.0, 100.0, 120.0}) {
    core::OptionSpec am = euro_put(spot, 100, 1.0, 0.05, 0.2);
    am.style = core::ExerciseStyle::kAmerican;
    const double p = binomial::price_one_reference(am, 512);
    EXPECT_GE(p, std::max(100.0 - spot, 0.0) - 1e-9) << spot;
  }
}

TEST(Binomial, KnownAmericanPutValue) {
  // Standard reference case: S=K=100, r=5%, sigma=20%, T=1. The American
  // put converges to ~6.0903 (vs 5.5735 European).
  core::OptionSpec am = euro_put();
  am.style = core::ExerciseStyle::kAmerican;
  EXPECT_NEAR(binomial::price_one_reference(am, 8192), 6.0903, 5e-3);
}

TEST(Binomial, BasicMatchesReference) {
  const auto opts = core::make_option_workload(37, 4);
  std::vector<double> ref(opts.size()), basic(opts.size());
  binomial::price_reference(opts, 257, ref);
  binomial::price_basic(opts, 257, basic);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(basic[i], ref[i], 1e-9 * std::max(1.0, std::fabs(ref[i]))) << i;
  }
}

class BinomialWidthTest : public ::testing::TestWithParam<binomial::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, BinomialWidthTest,
                         ::testing::Values(binomial::Width::kScalar, binomial::Width::kAvx2,
                                           binomial::Width::kAvx512, binomial::Width::kAuto));

TEST_P(BinomialWidthTest, IntermediateMatchesReference) {
  for (std::size_t n : {1UL, 3UL, 8UL, 9UL, 16UL, 33UL}) {
    const auto opts = core::make_option_workload(n, 6);
    std::vector<double> ref(n), simd(n);
    binomial::price_reference(opts, 200, ref);
    binomial::price_intermediate(opts, 200, simd, GetParam());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(simd[i], ref[i], 1e-8 * std::max(1.0, std::fabs(ref[i])))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(BinomialWidthTest, IntermediateAmericanMatchesReference) {
  core::SingleOptionWorkloadParams p;
  p.style = core::ExerciseStyle::kAmerican;
  const auto opts = core::make_option_workload(19, 8, p);
  std::vector<double> ref(opts.size()), simd(opts.size());
  binomial::price_reference(opts, 311, ref);
  binomial::price_intermediate(opts, 311, simd, GetParam());
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(simd[i], ref[i], 1e-8 * std::max(1.0, std::fabs(ref[i]))) << i;
  }
}

TEST_P(BinomialWidthTest, MixedExerciseBatch) {
  // American and European options interleaved in the same SIMD group.
  core::SingleOptionWorkloadParams p;
  auto opts = core::make_option_workload(16, 10, p);
  for (std::size_t i = 0; i < opts.size(); i += 2) {
    opts[i].style = core::ExerciseStyle::kAmerican;
  }
  std::vector<double> ref(opts.size()), simd(opts.size());
  binomial::price_reference(opts, 128, ref);
  binomial::price_intermediate(opts, 128, simd, GetParam());
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(simd[i], ref[i], 1e-8 * std::max(1.0, std::fabs(ref[i]))) << i;
  }
}

// Register tiling must agree with the plain reduction for every alignment
// of steps vs tile size (the remainder path is the tricky part).
class BinomialTilingTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(StepCounts, BinomialTilingTest,
                         ::testing::Values(1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 100, 127, 255,
                                           1024));

TEST_P(BinomialTilingTest, AdvancedMatchesIntermediate) {
  const int steps = GetParam();
  const auto opts = core::make_option_workload(16, 12);
  std::vector<double> inter(opts.size()), tiled(opts.size()), unrolled(opts.size());
  binomial::price_intermediate(opts, steps, inter);
  binomial::price_advanced(opts, steps, tiled);
  binomial::price_advanced_unrolled(opts, steps, unrolled);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(tiled[i], inter[i], 1e-10 * std::max(1.0, std::fabs(inter[i])))
        << "steps=" << steps << " i=" << i;
    EXPECT_NEAR(unrolled[i], tiled[i], 1e-12 * std::max(1.0, std::fabs(tiled[i])));
  }
}

TEST(Binomial, TilingAgreesAcrossWidths) {
  const auto opts = core::make_option_workload(8, 14);
  std::vector<double> w4(opts.size());
  binomial::price_advanced(opts, 500, w4, binomial::Width::kAvx2);
#if defined(FINBENCH_HAVE_AVX512)
  std::vector<double> w8(opts.size());
  binomial::price_advanced(opts, 500, w8, binomial::Width::kAvx512);
  for (std::size_t i = 0; i < opts.size(); ++i) EXPECT_EQ(w4[i], w8[i]) << i;
#endif
  std::vector<double> w1(opts.size());
  binomial::price_advanced(opts, 500, w1, binomial::Width::kScalar);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(w1[i], w4[i], 1e-11 * std::max(1.0, std::fabs(w4[i]))) << i;
  }
}

// The AoSoA blocked path at every width: call and put of each lane match
// the scalar reference on ragged books, so the padded tail lanes of the
// last block (and of a lane group narrower than the block) are exercised.
class BinomialBlocked : public ::testing::TestWithParam<binomial::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, BinomialBlocked,
                         ::testing::Values(binomial::Width::kScalar, binomial::Width::kAvx2,
                                           binomial::Width::kAvx512, binomial::Width::kAuto));

TEST_P(BinomialBlocked, CallAndPutMatchReferenceOnRaggedBooks) {
  constexpr int kSteps = 200;
  for (std::size_t n : {1UL, 7UL, 8UL, 9UL, 37UL}) {
    core::Portfolio pf = core::Portfolio::bs(n, core::Layout::kBsBlocked, 23 + n);
    const core::BsBlockedView& b = pf.view().blocked;
    binomial::price_blocked(b, kSteps, GetParam());
    constexpr std::size_t w = core::kBsBlock;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t blk = i / w, ln = i % w;
      core::OptionSpec o = euro_put(b.field(blk, 0)[ln], b.field(blk, 1)[ln],
                                    b.field(blk, 2)[ln], b.rate, b.vol);
      o.dividend = b.dividend;
      const double put = binomial::price_one_reference(o, kSteps);
      o.type = core::OptionType::kCall;
      const double call = binomial::price_one_reference(o, kSteps);
      EXPECT_NEAR(b.field(blk, 3)[ln], call, 1e-8 * std::max(1.0, std::fabs(call)))
          << "n=" << n << " i=" << i;
      EXPECT_NEAR(b.field(blk, 4)[ln], put, 1e-8 * std::max(1.0, std::fabs(put)))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Binomial, ThrowsOnExplodingProbability) {
  // r*dt too large relative to vol*sqrt(dt): pu > 1 must be rejected.
  core::OptionSpec o = euro_put(100, 100, 10.0, 0.5, 0.01);
  EXPECT_THROW(binomial::price_one_reference(o, 10), std::invalid_argument);
}

TEST(Binomial, FlopsModel) {
  EXPECT_DOUBLE_EQ(binomial::flops_per_option(1024), 3.0 * 1024 * 1025 / 2.0);
  EXPECT_DOUBLE_EQ(binomial::flops_per_option(1), 3.0);
}

TEST(Binomial, MonotoneInVolatility) {
  double prev = 0.0;
  for (double vol = 0.1; vol <= 0.6; vol += 0.1) {
    core::OptionSpec o = euro_put(100, 100, 1.0, 0.05, vol);
    const double p = binomial::price_one_reference(o, 512);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

}  // namespace
