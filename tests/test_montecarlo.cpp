// Tests for the Monte Carlo pricing kernel (Table II): agreement of all
// variants on identical random inputs, statistical convergence to the
// closed-form Black–Scholes price within confidence bounds, standard error
// behavior, and the antithetic / control-variate estimator.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/kernels/montecarlo.hpp"
#include "finbench/obs/metrics.hpp"
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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Calls and puts, with and without a dividend yield.
std::vector<core::OptionSpec> mixed_book(std::size_t n, std::uint64_t seed) {
  auto opts = core::make_option_workload(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) opts[i].type = core::OptionType::kCall;
    if (i % 3 == 0) opts[i].dividend = 0.03;
  }
  return opts;
}

TEST_P(McWidthTest, OptimizedComputedEqualsStreamOnSubstreamNormals) {
  // Whole RNG chunks are multiples of 2W paths, so the computed kernel sums
  // option o's substream exactly as the stream kernel sums those normals.
  const auto opts = mixed_book(8, 12);
  const std::uint64_t seed = 17, base = 3;
  for (std::size_t npath : {1UL, 15UL, 4096UL, 4097UL, 8193UL, 10001UL}) {
    std::vector<mc::McResult> computed(opts.size()), stream(1);
    mc::price_optimized_computed(opts, npath, seed, computed, GetParam(), base);
    std::vector<double> z(npath);
    for (std::size_t o = 0; o < opts.size(); ++o) {
      rng::NormalStream(seed, base + o).fill(z);
      mc::price_optimized_stream(std::span(&opts[o], 1), z, npath, stream, GetParam());
      EXPECT_EQ(bits(computed[o].price), bits(stream[0].price)) << "npath=" << npath << " o=" << o;
      EXPECT_EQ(bits(computed[o].std_error), bits(stream[0].std_error))
          << "npath=" << npath << " o=" << o;
    }
  }
}

TEST(MonteCarlo, PathCounterCountsEveryEntryPoint) {
  const auto opts = mixed_book(3, 13);
  const std::size_t npath = 100;
  const auto z = normals(npath);
  std::vector<mc::McResult> res(opts.size());
  std::vector<mc::McGreeks> greeks(opts.size());
  const obs::Counter& paths = obs::counter("mc.paths");
  auto adds = [&](auto&& price) {
    const std::uint64_t before = paths.value();
    price();
    return paths.value() - before;
  };
  const std::uint64_t batch = opts.size() * npath;
  EXPECT_EQ(adds([&] { mc::price_reference_stream(opts, z, npath, res); }), batch);
  EXPECT_EQ(adds([&] { mc::price_basic_stream(opts, z, npath, res); }), batch);
  EXPECT_EQ(adds([&] { mc::price_optimized_stream(opts, z, npath, res); }), batch);
  EXPECT_EQ(adds([&] { mc::price_reference_computed(opts, npath, 1, res); }), batch);
  EXPECT_EQ(adds([&] { mc::price_optimized_computed(opts, npath, 1, res); }), batch);
  EXPECT_EQ(adds([&] { mc::price_variance_reduced(opts, npath, 1, res); }), batch);
  EXPECT_EQ(adds([&] { mc::greeks_pathwise(opts, npath, 1, greeks); }), batch);
  // A path block counts its own paths; finalizing the sum adds none.
  mc::McMoments m;
  EXPECT_EQ(adds([&] { m = mc::integrate_stream_partial(opts[0], {z.data(), 40}); }), 40u);
  EXPECT_EQ(adds([&] { mc::finalize_moments(opts[0], m, 40); }), 0u);
}

TEST(MonteCarlo, ZeroPathsNameTheirCause) {
  const auto opts = mixed_book(2, 14);
  const auto z = normals(8);
  std::vector<mc::McResult> res(opts.size());
  std::vector<mc::McGreeks> greeks(opts.size());
  auto rejects = [](auto&& price) {
    try {
      price();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()) == "monte carlo: npath must be at least 1";
    }
    return false;
  };
  EXPECT_TRUE(rejects([&] { mc::price_reference_stream(opts, z, 0, res); }));
  EXPECT_TRUE(rejects([&] { mc::price_basic_stream(opts, z, 0, res); }));
  EXPECT_TRUE(rejects([&] { mc::price_optimized_stream(opts, z, 0, res); }));
  EXPECT_TRUE(rejects([&] { mc::integrate_stream_partial(opts[0], {z.data(), 0}); }));
  EXPECT_TRUE(rejects([&] { mc::finalize_moments(opts[0], {}, 0); }));
  EXPECT_TRUE(rejects([&] { mc::price_reference_computed(opts, 0, 1, res); }));
  EXPECT_TRUE(rejects([&] { mc::price_optimized_computed(opts, 0, 1, res); }));
  EXPECT_TRUE(rejects([&] { mc::price_variance_reduced(opts, 0, 1, res); }));
  EXPECT_TRUE(rejects([&] { mc::greeks_pathwise(opts, 0, 1, greeks); }));

  // Through the engine, every MC id (and the family's race) reports it.
  std::vector<std::string> ids{"mc.auto"};
  for (const std::string& id : engine::Registry::instance().ids()) {
    if (engine::Registry::instance().find(id)->kernel == "mc") ids.push_back(id);
  }
  EXPECT_GE(ids.size(), 6u);
  for (const std::string& id : ids) {
    engine::PricingRequest req;
    req.kernel_id = id;
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(opts));
    req.npath = 0;
    const engine::PricingResult r = engine::Engine::shared().price(req);
    EXPECT_FALSE(r.status.ok()) << id;
    EXPECT_NE(r.status.to_string().find("npath must be at least 1"), std::string::npos)
        << id << ": " << r.status.to_string();
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
