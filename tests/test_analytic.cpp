// Tests for the analytic pricing core: closed-form Black–Scholes against
// externally computed reference values, put-call parity and monotonicity
// property sweeps, greeks against finite differences, and implied-vol
// roundtrips.

#include <gtest/gtest.h>

#include <cmath>

#include "finbench/core/analytic.hpp"
#include "finbench/core/optlevel.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"

namespace {

using namespace finbench::core;

// Classic textbook value (Hull): S=42, K=40, r=0.10, sigma=0.20, T=0.5.
TEST(BlackScholes, HullTextbookExample) {
  const BsPrice p = black_scholes(42.0, 40.0, 0.5, 0.10, 0.20);
  EXPECT_NEAR(p.call, 4.759422, 1e-5);
  EXPECT_NEAR(p.put, 0.808599, 1e-5);
}

TEST(BlackScholes, AtTheMoneyOneYear) {
  // S=K=100, r=5%, sigma=20%, T=1: call = 10.450584, put = 5.573526.
  const BsPrice p = black_scholes(100.0, 100.0, 1.0, 0.05, 0.20);
  EXPECT_NEAR(p.call, 10.450584, 1e-5);
  EXPECT_NEAR(p.put, 5.573526, 1e-5);
}

TEST(BlackScholes, ZeroRate) {
  // r=0: call and put are symmetric around the forward.
  const BsPrice p = black_scholes(100.0, 100.0, 1.0, 0.0, 0.30);
  EXPECT_NEAR(p.call, p.put, 1e-12);
  EXPECT_NEAR(p.call, 11.923538, 1e-5);
}

TEST(BlackScholes, DegenerateZeroVol) {
  const BsPrice p = black_scholes(120.0, 100.0, 1.0, 0.05, 0.0);
  // Deterministic: discounted forward payoff.
  EXPECT_NEAR(p.call, 120.0 - 100.0 * std::exp(-0.05), 1e-12);
  EXPECT_NEAR(p.put, 0.0, 1e-12);
}

TEST(BlackScholes, DegenerateZeroTime) {
  const BsPrice p = black_scholes(90.0, 100.0, 0.0, 0.05, 0.2);
  EXPECT_NEAR(p.call, 0.0, 1e-12);
  EXPECT_NEAR(p.put, 10.0, 1e-12);
}

TEST(BlackScholes, DeepInAndOutOfTheMoney) {
  const BsPrice deep_itm = black_scholes(1000.0, 10.0, 1.0, 0.05, 0.2);
  EXPECT_NEAR(deep_itm.call, 1000.0 - 10.0 * std::exp(-0.05), 1e-6);
  EXPECT_NEAR(deep_itm.put, 0.0, 1e-10);
  const BsPrice deep_otm = black_scholes(10.0, 1000.0, 1.0, 0.05, 0.2);
  EXPECT_NEAR(deep_otm.call, 0.0, 1e-10);
  EXPECT_NEAR(deep_otm.put, 1000.0 * std::exp(-0.05) - 10.0, 1e-6);
}

// Put-call parity over a randomized workload (property test).
TEST(BlackScholes, PutCallParityHoldsEverywhere) {
  const auto opts = make_option_workload(2000, 11);
  for (const auto& o : opts) {
    const BsPrice p = black_scholes(o.spot, o.strike, o.years, o.rate, o.vol);
    const double lhs = p.call - p.put;
    const double rhs = o.spot - o.strike * std::exp(-o.rate * o.years);
    EXPECT_NEAR(lhs, rhs, 1e-10 * std::max(1.0, std::fabs(rhs)));
  }
}

// Monotonicity sweeps, parameterized over moneyness.
class BsMonotonicityTest : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Moneyness, BsMonotonicityTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.25, 2.0));

TEST_P(BsMonotonicityTest, CallIncreasesWithVol) {
  const double k = 100.0 * GetParam();
  double prev = -1.0;
  for (double vol = 0.05; vol <= 1.0; vol += 0.05) {
    const double c = black_scholes(100.0, k, 1.0, 0.05, vol).call;
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST_P(BsMonotonicityTest, CallIncreasesWithExpiryForPositiveRate) {
  const double k = 100.0 * GetParam();
  double prev = -1.0;
  for (double t = 0.1; t <= 5.0; t += 0.25) {
    const double c = black_scholes(100.0, k, t, 0.05, 0.2).call;
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST_P(BsMonotonicityTest, PricesWithinArbitrageBounds) {
  const double k = 100.0 * GetParam();
  for (double t : {0.25, 1.0, 3.0}) {
    const BsPrice p = black_scholes(100.0, k, t, 0.05, 0.3);
    const double df = std::exp(-0.05 * t);
    EXPECT_GE(p.call, std::max(100.0 - k * df, 0.0) - 1e-12);
    EXPECT_LE(p.call, 100.0 + 1e-12);
    EXPECT_GE(p.put, std::max(k * df - 100.0, 0.0) - 1e-12);
    EXPECT_LE(p.put, k * df + 1e-12);
  }
}

// Greeks against central finite differences.
TEST(BsGreeks, MatchFiniteDifferences) {
  const auto opts = make_option_workload(200, 17);
  for (auto o : opts) {
    o.type = OptionType::kCall;
    const BsGreeks g = black_scholes_greeks(o);
    const double h = 1e-5;

    auto price_at = [&](double ds, double dv, double dr, double dt) {
      return black_scholes(o.spot + ds, o.strike, o.years + dt, o.rate + dr, o.vol + dv).call;
    };
    const double delta_fd = (price_at(h, 0, 0, 0) - price_at(-h, 0, 0, 0)) / (2 * h);
    const double gamma_fd =
        (price_at(h, 0, 0, 0) - 2 * price_at(0, 0, 0, 0) + price_at(-h, 0, 0, 0)) / (h * h);
    const double vega_fd = (price_at(0, h, 0, 0) - price_at(0, -h, 0, 0)) / (2 * h);
    const double rho_fd = (price_at(0, 0, h, 0) - price_at(0, 0, -h, 0)) / (2 * h);
    // theta is -dV/dT (calendar time decay = -d/dT at fixed expiry date).
    const double theta_fd = -(price_at(0, 0, 0, h) - price_at(0, 0, 0, -h)) / (2 * h);

    EXPECT_NEAR(g.delta, delta_fd, 1e-5);
    EXPECT_NEAR(g.gamma, gamma_fd, 1e-3);
    EXPECT_NEAR(g.vega, vega_fd, 1e-3 * std::max(1.0, std::fabs(vega_fd)));
    EXPECT_NEAR(g.rho, rho_fd, 1e-3 * std::max(1.0, std::fabs(rho_fd)));
    EXPECT_NEAR(g.theta, theta_fd, 1e-3 * std::max(1.0, std::fabs(theta_fd)));
  }
}

TEST(BsGreeks, PutDeltaFromCallDelta) {
  OptionSpec call{100, 95, 1.5, 0.04, 0.25, OptionType::kCall, ExerciseStyle::kEuropean};
  OptionSpec put = call;
  put.type = OptionType::kPut;
  const BsGreeks gc = black_scholes_greeks(call);
  const BsGreeks gp = black_scholes_greeks(put);
  EXPECT_NEAR(gc.delta - gp.delta, 1.0, 1e-12);  // parity in delta
  EXPECT_NEAR(gc.gamma, gp.gamma, 1e-12);        // same gamma
  EXPECT_NEAR(gc.vega, gp.vega, 1e-12);          // same vega
}

TEST(ImpliedVol, RoundtripsOverWorkload) {
  auto opts = make_option_workload(500, 23);
  for (auto& o : opts) {
    o.type = OptionType::kCall;
    const double price = black_scholes_price(o);
    const double iv = implied_volatility(o, price);
    ASSERT_GT(iv, 0.0);
    // Deep ITM/OTM options have vanishing vega, so the vol itself is
    // ill-conditioned; repricing accuracy is the meaningful criterion.
    OptionSpec probe = o;
    probe.vol = iv;
    EXPECT_NEAR(black_scholes_price(probe), price, 1e-9 * std::max(1.0, price))
        << "S=" << o.spot << " K=" << o.strike;
    const double vega = black_scholes_greeks(o).vega;
    if (vega > 1.0) {
      EXPECT_NEAR(iv, o.vol, 1e-7) << "S=" << o.spot << " K=" << o.strike;
    }
  }
}

TEST(ImpliedVol, PutRoundtrip) {
  OptionSpec o{90, 100, 2.0, 0.03, 0.45, OptionType::kPut, ExerciseStyle::kEuropean};
  const double price = black_scholes_price(o);
  EXPECT_NEAR(implied_volatility(o, price), 0.45, 1e-8);
}

TEST(ImpliedVol, RejectsArbitrageViolations) {
  OptionSpec o{100, 100, 1.0, 0.05, 0.2, OptionType::kCall, ExerciseStyle::kEuropean};
  EXPECT_LT(implied_volatility(o, 101.0), 0.0);  // above S
  EXPECT_LT(implied_volatility(o, -1.0), 0.0);   // negative
}

// Workload generators.
TEST(Workload, DeterministicForSameSeed) {
  const auto a = make_option_workload(100, 5);
  const auto b = make_option_workload(100, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spot, b[i].spot);
    EXPECT_EQ(a[i].vol, b[i].vol);
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  const auto a = make_option_workload(100, 5);
  const auto b = make_option_workload(100, 6);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i].spot == b[i].spot;
  EXPECT_LE(same, 2);
}

TEST(Workload, ParametersInRange) {
  SingleOptionWorkloadParams p;
  const auto opts = make_option_workload(1000, 9, p);
  for (const auto& o : opts) {
    EXPECT_GE(o.spot, p.spot_min);
    EXPECT_LE(o.spot, p.spot_max);
    EXPECT_GE(o.vol, p.vol_min);
    EXPECT_LE(o.vol, p.vol_max);
    EXPECT_GE(o.years, p.years_min);
    EXPECT_LE(o.years, p.years_max);
  }
}

TEST(Workload, AosSoaRoundtrip) {
  Portfolio book = Portfolio::bs(257, Layout::kBsAos, 3);
  PortfolioView src = book.view();
  src.aos.dividend = 0.015;
  Arena arena;
  const BsAosView back =
      convert(convert(src, Layout::kBsSoa, arena), Layout::kBsAos, arena).aos;
  const BsAosView& aos = src.aos;
  ASSERT_EQ(back.size(), aos.size());
  for (std::size_t i = 0; i < aos.size(); ++i) {
    EXPECT_EQ(back.options[i].spot, aos.options[i].spot);
    EXPECT_EQ(back.options[i].strike, aos.options[i].strike);
    EXPECT_EQ(back.options[i].years, aos.options[i].years);
  }
  EXPECT_EQ(back.rate, aos.rate);
  EXPECT_EQ(back.vol, aos.vol);
  EXPECT_EQ(back.dividend, aos.dividend);
}

TEST(OptLevel, VocabularyIsStable) {
  // The paper's optimization taxonomy, used throughout the docs/benches.
  EXPECT_EQ(to_string(OptLevel::kReference), "Reference");
  EXPECT_EQ(to_string(OptLevel::kBasic), "Basic");
  EXPECT_EQ(to_string(OptLevel::kIntermediate), "Intermediate");
  EXPECT_EQ(to_string(OptLevel::kAdvanced), "Advanced");
}

}  // namespace
