// Tests for the Monte Carlo pricing kernel (Table II): agreement of all
// variants on identical random inputs, statistical convergence to the
// closed-form Black–Scholes price within confidence bounds, standard error
// behavior, and the antithetic / control-variate estimator.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/montecarlo.hpp"
#include "finbench/rng/normal.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

std::vector<double> normals(std::size_t n, std::uint64_t seed = 1) {
  std::vector<double> z(n);
  rng::NormalStream s(seed);
  s.fill(z);
  return z;
}

core::OptionSpec call_opt(double s = 100, double k = 100, double t = 1, double r = 0.05,
                          double v = 0.2) {
  return {s, k, t, r, v, core::OptionType::kCall, core::ExerciseStyle::kEuropean};
}

TEST(MonteCarlo, ReferenceWithinConfidenceOfAnalytic) {
  const auto opts = core::make_option_workload(20, 3);
  const std::size_t npath = 1 << 17;
  const auto z = normals(npath);
  std::vector<mc::McResult> res(opts.size());
  mc::price_reference_stream(opts, z, npath, res);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    const double exact = core::black_scholes_price(opts[i]);
    EXPECT_NEAR(res[i].price, exact, 4.5 * res[i].std_error + 1e-12) << i;
    EXPECT_GT(res[i].std_error, 0.0);
  }
}

TEST(MonteCarlo, BasicMatchesReferenceExactly) {
  const auto opts = core::make_option_workload(9, 4);
  const std::size_t npath = 4096;
  const auto z = normals(npath);
  std::vector<mc::McResult> a(opts.size()), b(opts.size());
  mc::price_reference_stream(opts, z, npath, a);
  mc::price_basic_stream(opts, z, npath, b);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    // Reduction order may differ under autovectorization: near, not equal.
    EXPECT_NEAR(b[i].price, a[i].price, 1e-10 * std::max(1.0, a[i].price)) << i;
  }
}

class McWidthTest : public ::testing::TestWithParam<mc::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, McWidthTest,
                         ::testing::Values(mc::Width::kScalar, mc::Width::kAvx2,
                                           mc::Width::kAvx512, mc::Width::kAuto));

TEST_P(McWidthTest, OptimizedStreamMatchesReference) {
  const auto opts = core::make_option_workload(7, 5);
  for (std::size_t npath : {1UL, 7UL, 64UL, 1000UL, 4096UL}) {
    const auto z = normals(npath, npath);
    std::vector<mc::McResult> ref(opts.size()), opt(opts.size());
    mc::price_reference_stream(opts, z, npath, ref);
    mc::price_optimized_stream(opts, z, npath, opt, GetParam());
    for (std::size_t i = 0; i < opts.size(); ++i) {
      EXPECT_NEAR(opt[i].price, ref[i].price, 1e-9 * std::max(1.0, ref[i].price))
          << "npath=" << npath << " i=" << i;
      EXPECT_NEAR(opt[i].std_error, ref[i].std_error,
                  1e-6 * std::max(1e-6, ref[i].std_error));
    }
  }
}

TEST_P(McWidthTest, ComputedRngMatchesReferenceComputed) {
  const auto opts = core::make_option_workload(5, 6);
  const std::size_t npath = 10000;
  std::vector<mc::McResult> ref(opts.size()), opt(opts.size());
  mc::price_reference_computed(opts, npath, 99, ref);
  mc::price_optimized_computed(opts, npath, 99, opt, GetParam());
  for (std::size_t i = 0; i < opts.size(); ++i) {
    // Same Philox substreams -> same normals -> near-identical sums.
    EXPECT_NEAR(opt[i].price, ref[i].price, 1e-9 * std::max(1.0, ref[i].price)) << i;
  }
}

TEST(MonteCarlo, ComputedRngConvergesToAnalytic) {
  const auto opts = core::make_option_workload(10, 8);
  const std::size_t npath = 1 << 16;
  std::vector<mc::McResult> res(opts.size());
  mc::price_optimized_computed(opts, npath, 123, res);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    const double exact = core::black_scholes_price(opts[i]);
    EXPECT_NEAR(res[i].price, exact, 4.5 * res[i].std_error + 1e-12) << i;
  }
}

TEST(MonteCarlo, CallsAndPutsBothPrice) {
  for (auto type : {core::OptionType::kCall, core::OptionType::kPut}) {
    core::OptionSpec o{100, 105, 1.0, 0.05, 0.25, type, core::ExerciseStyle::kEuropean};
    std::vector<mc::McResult> res(1);
    mc::price_optimized_computed(std::span(&o, 1), 1 << 16, 7, res);
    EXPECT_NEAR(res[0].price, core::black_scholes_price(o), 4.5 * res[0].std_error);
  }
}

TEST(MonteCarlo, StdErrorShrinksAsSqrtN) {
  core::OptionSpec o{100, 100, 1.0, 0.05, 0.2, core::OptionType::kCall,
                     core::ExerciseStyle::kEuropean};
  const auto z = normals(1 << 16, 5);
  std::vector<mc::McResult> small(1), large(1);
  mc::price_optimized_stream(std::span(&o, 1), z, 1 << 12, small);
  mc::price_optimized_stream(std::span(&o, 1), z, 1 << 16, large);
  // 16x paths -> 4x smaller standard error (same payoff variance).
  EXPECT_NEAR(small[0].std_error / large[0].std_error, 4.0, 0.5);
}

TEST(MonteCarlo, DeepOutOfTheMoneyIsNearZero) {
  core::OptionSpec o{10, 1000, 0.25, 0.05, 0.1, core::OptionType::kCall,
                     core::ExerciseStyle::kEuropean};
  std::vector<mc::McResult> res(1);
  mc::price_optimized_computed(std::span(&o, 1), 1 << 14, 3, res);
  EXPECT_EQ(res[0].price, 0.0);  // no path can reach the strike
  EXPECT_EQ(res[0].std_error, 0.0);
}

TEST(MonteCarlo, ZeroVolIsDeterministic) {
  core::OptionSpec o{110, 100, 1.0, 0.05, 1e-12, core::OptionType::kCall,
                     core::ExerciseStyle::kEuropean};
  std::vector<mc::McResult> res(1);
  const auto z = normals(1024, 2);
  mc::price_optimized_stream(std::span(&o, 1), z, 1024, res);
  // S_T = S e^{rT} exactly; price = S - K e^{-rT}. The variance estimate
  // leaves a tiny cancellation residue, so the bound is loose but small.
  EXPECT_NEAR(res[0].price, 110.0 - 100.0 * std::exp(-0.05), 1e-8);
  EXPECT_LT(res[0].std_error, 1e-6);
}

TEST(MonteCarlo, ReproducibleAcrossRuns) {
  const auto opts = core::make_option_workload(3, 9);
  std::vector<mc::McResult> a(3), b(3);
  mc::price_optimized_computed(opts, 5000, 42, a);
  mc::price_optimized_computed(opts, 5000, 42, b);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a[i].price, b[i].price);
}

TEST(MonteCarlo, SeedChangesEstimate) {
  const auto opts = core::make_option_workload(1, 9);
  std::vector<mc::McResult> a(1), b(1);
  mc::price_optimized_computed(opts, 5000, 1, a);
  mc::price_optimized_computed(opts, 5000, 2, b);
  EXPECT_NE(a[0].price, b[0].price);
}

// --- Variance reduction ---------------------------------------------------------------

TEST(VarianceReduction, MatchesAnalyticWithinCi) {
  const auto opts = core::make_option_workload(10, 51);
  std::vector<mc::McResult> res(opts.size());
  mc::price_variance_reduced(opts, 1 << 16, 3, res);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_NEAR(res[i].price, core::black_scholes_price(opts[i]),
                4.5 * res[i].std_error + 1e-10)
        << i;
  }
}

TEST(VarianceReduction, AntitheticShrinksError) {
  core::OptionSpec o = call_opt();
  std::vector<mc::McResult> plain(1), anti(1);
  const std::size_t npath = 1 << 16;
  mc::price_optimized_computed(std::span(&o, 1), npath, 5, plain);
  mc::price_variance_reduced(std::span(&o, 1), npath, 5, anti, /*antithetic=*/true,
                             /*control_variate=*/false);
  EXPECT_LT(anti[0].std_error, plain[0].std_error);
}

TEST(VarianceReduction, ControlVariateShrinksErrorFurther) {
  core::OptionSpec o = call_opt(100, 90, 1.0, 0.05, 0.25);  // ITM: high corr with S_T
  std::vector<mc::McResult> anti(1), both(1);
  const std::size_t npath = 1 << 16;
  mc::price_variance_reduced(std::span(&o, 1), npath, 5, anti, true, false);
  mc::price_variance_reduced(std::span(&o, 1), npath, 5, both, true, true);
  EXPECT_LT(both[0].std_error, anti[0].std_error);
  // Reported errors must still be honest: estimate within 5 claimed SEs.
  EXPECT_NEAR(both[0].price, core::black_scholes_price(o), 5 * both[0].std_error + 1e-3);
}

TEST(VarianceReduction, DeepItmControlIsNearExact) {
  // Deep ITM call payoff ~ S_T - K: the control removes almost everything.
  core::OptionSpec o = call_opt(100, 40, 1.0, 0.05, 0.2);
  std::vector<mc::McResult> res(1);
  mc::price_variance_reduced(std::span(&o, 1), 1 << 15, 7, res);
  EXPECT_NEAR(res[0].price, core::black_scholes_price(o), 1e-2);
  EXPECT_LT(res[0].std_error, 5e-3);
}

TEST(VarianceReduction, OddPathCountsHandled) {
  core::OptionSpec o = call_opt();
  std::vector<mc::McResult> res(1);
  mc::price_variance_reduced(std::span(&o, 1), 10001, 9, res);
  EXPECT_NEAR(res[0].price, core::black_scholes_price(o), 5 * res[0].std_error);
}

TEST(VarianceReduction, Reproducible) {
  const auto opts = core::make_option_workload(2, 52);
  std::vector<mc::McResult> a(2), b(2);
  mc::price_variance_reduced(opts, 4096, 11, a);
  mc::price_variance_reduced(opts, 4096, 11, b);
  EXPECT_EQ(a[0].price, b[0].price);
  EXPECT_EQ(a[1].price, b[1].price);
}

}  // namespace
