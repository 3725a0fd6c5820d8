// Tests for continuous dividend yield across every pricing method: parity
// and bounds in closed form, cross-method agreement, and the signature
// effect — with dividends, early exercise of an American call becomes
// genuinely valuable.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/kernels/cranknicolson.hpp"
#include "finbench/kernels/lattice.hpp"
#include "finbench/kernels/montecarlo.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

core::OptionSpec opt_q(double q, core::OptionType type = core::OptionType::kCall,
                       core::ExerciseStyle style = core::ExerciseStyle::kEuropean) {
  core::OptionSpec o{100, 100, 1.0, 0.05, 0.25, type, style};
  o.dividend = q;
  return o;
}

TEST(Dividends, ParityWithYield) {
  // C - P = S e^{-qT} - K e^{-rT}.
  for (double q : {0.0, 0.02, 0.05, 0.10}) {
    const core::BsPrice p = core::black_scholes(100, 95, 1.5, 0.04, 0.3, q);
    const double rhs = 100 * std::exp(-q * 1.5) - 95 * std::exp(-0.04 * 1.5);
    EXPECT_NEAR(p.call - p.put, rhs, 1e-10) << q;
  }
}

TEST(Dividends, YieldLowersCallsRaisesPuts) {
  const core::BsPrice base = core::black_scholes(100, 100, 1, 0.05, 0.25, 0.0);
  const core::BsPrice with_q = core::black_scholes(100, 100, 1, 0.05, 0.25, 0.04);
  EXPECT_LT(with_q.call, base.call);
  EXPECT_GT(with_q.put, base.put);
}

TEST(Dividends, QEqualToRateMakesSymmetricAtm) {
  // r = q: forward = spot; ATM call and put coincide.
  const core::BsPrice p = core::black_scholes(100, 100, 1, 0.05, 0.25, 0.05);
  EXPECT_NEAR(p.call, p.put, 1e-12);
}

TEST(Dividends, AllEuropeanMethodsAgree) {
  const core::OptionSpec o = opt_q(0.03, core::OptionType::kPut);
  const double exact = core::black_scholes_price(o);
  EXPECT_NEAR(binomial::price_one_reference(o, 4096), exact, 2e-3);
  EXPECT_NEAR(lattice::price_leisen_reimer(o, 401), exact, 2e-4);
  EXPECT_NEAR(lattice::price_trinomial(o, 2000), exact, 2e-3);
  EXPECT_NEAR(lattice::price_bbsr(o, 256), exact, 2e-3);
  cn::GridSpec g;
  g.num_prices = 513;
  g.num_steps = 400;
  EXPECT_NEAR(cn::price_european_thomas(o, g), exact, 3e-3);
  std::vector<mc::McResult> res(1);
  mc::price_optimized_computed(std::span(&o, 1), 1 << 16, 7, res);
  EXPECT_NEAR(res[0].price, exact, 4.5 * res[0].std_error);
}

TEST(Dividends, AmericanCallGainsEarlyExerciseValue) {
  // Without dividends American call == European; with a fat yield it is
  // strictly more valuable.
  core::OptionSpec eu = opt_q(0.08);
  core::OptionSpec am = eu;
  am.style = core::ExerciseStyle::kAmerican;
  const double euro = binomial::price_one_reference(eu, 2048);
  const double american = binomial::price_one_reference(am, 2048);
  EXPECT_GT(american, euro + 0.05);
  // And it is floored by intrinsic even deep ITM (where the European call
  // trades below parity because of the dividend drag).
  core::OptionSpec deep_eu = opt_q(0.08);
  deep_eu.spot = 150;
  core::OptionSpec deep_am = deep_eu;
  deep_am.style = core::ExerciseStyle::kAmerican;
  EXPECT_LT(core::black_scholes_price(deep_eu), 50.0);  // below intrinsic
  EXPECT_GE(binomial::price_one_reference(deep_am, 2048), 50.0 - 1e-9);
}

TEST(Dividends, AmericanPutPdeMatchesLattice) {
  core::OptionSpec o = opt_q(0.04, core::OptionType::kPut, core::ExerciseStyle::kAmerican);
  cn::GridSpec g;
  g.num_prices = 513;
  g.num_steps = 400;
  const double pde = cn::price_wavefront_split(o, g).price;
  const double lattice = binomial::price_one_reference(o, 4096);
  EXPECT_NEAR(pde, lattice, 1e-2 * lattice);
  // Brennan–Schwartz too.
  EXPECT_NEAR(cn::price_american_brennan_schwartz(o, g).price, lattice, 1e-2 * lattice);
}

TEST(Dividends, GreeksMatchFiniteDifferencesWithYield) {
  core::OptionSpec o = opt_q(0.03);
  const core::BsGreeks g = core::black_scholes_greeks(o);
  const double h = 1e-5;
  auto price_at = [&](double ds, double dv, double dr, double dt) {
    core::OptionSpec p = o;
    p.spot += ds;
    p.vol += dv;
    p.rate += dr;
    p.years += dt;
    return core::black_scholes_price(p);
  };
  EXPECT_NEAR(g.delta, (price_at(h, 0, 0, 0) - price_at(-h, 0, 0, 0)) / (2 * h), 1e-6);
  EXPECT_NEAR(g.vega, (price_at(0, h, 0, 0) - price_at(0, -h, 0, 0)) / (2 * h), 1e-4);
  EXPECT_NEAR(g.rho, (price_at(0, 0, h, 0) - price_at(0, 0, -h, 0)) / (2 * h), 1e-4);
  EXPECT_NEAR(g.theta, -(price_at(0, 0, 0, h) - price_at(0, 0, 0, -h)) / (2 * h), 1e-4);
}

TEST(Dividends, ImpliedVolRoundtripsWithYield) {
  core::OptionSpec o = opt_q(0.06);
  o.vol = 0.33;
  const double price = core::black_scholes_price(o);
  EXPECT_NEAR(core::implied_volatility(o, price), 0.33, 1e-7);
}

TEST(Dividends, BermudanStillBracketedWithYield) {
  core::OptionSpec o = opt_q(0.06, core::OptionType::kCall);
  const double euro = lattice::price_bermudan(o, 512, 1);
  const double monthly = lattice::price_bermudan(o, 512, 12);
  core::OptionSpec am = o;
  am.style = core::ExerciseStyle::kAmerican;
  const double american = binomial::price_one_reference(am, 512);
  EXPECT_GT(monthly, euro);
  EXPECT_LT(monthly, american + 1e-9);
}

TEST(Dividends, BatchKernelsWithSharedYield) {
  core::Portfolio book = core::Portfolio::bs(130, core::Layout::kBsSoa, 91);
  core::BsSoaView soa = book.view().soa;
  soa.dividend = 0.035;
  bs::price_intermediate(soa);
  for (std::size_t i = 0; i < soa.size(); i += 7) {
    const auto exact = core::black_scholes(soa.spot[i], soa.strike[i], soa.years[i],
                                           soa.rate, soa.vol, soa.dividend);
    EXPECT_NEAR(soa.call[i], exact.call, 1e-8 * std::max(1.0, exact.call)) << i;
    EXPECT_NEAR(soa.put[i], exact.put, 1e-8 * std::max(1.0, exact.put)) << i;
  }
  // Batch greeks with the yield.
  bs::GreeksBatchSoa g;
  bs::greeks_intermediate(soa, g);
  for (std::size_t i = 0; i < soa.size(); i += 13) {
    core::OptionSpec o{soa.spot[i], soa.strike[i], soa.years[i], soa.rate, soa.vol,
                       core::OptionType::kCall, core::ExerciseStyle::kEuropean,
                       soa.dividend};
    const auto exact = core::black_scholes_greeks(o);
    EXPECT_NEAR(g.delta_call[i], exact.delta, 1e-9) << i;
    EXPECT_NEAR(g.vega[i], exact.vega, 1e-7 * std::max(1.0, exact.vega)) << i;
    EXPECT_NEAR(g.theta_call[i], exact.theta, 1e-7 * std::max(1.0, std::fabs(exact.theta)));
  }
  // Batch implied vol inverts dividend-adjusted quotes.
  std::vector<double> vols(soa.size());
  bs::implied_vol_intermediate(soa, soa.call, vols);
  for (std::size_t i = 0; i < soa.size(); i += 11) {
    core::OptionSpec o{soa.spot[i], soa.strike[i], soa.years[i], soa.rate, vols[i],
                       core::OptionType::kCall, core::ExerciseStyle::kEuropean,
                       soa.dividend};
    EXPECT_NEAR(core::black_scholes_price(o), soa.call[i],
                1e-8 * std::max(1.0, soa.call[i]))
        << i;
  }
}

// The reference (AOS) and VML (SOA) kernels price a yield through S·e^(-qT)
// and the drift r - q; only the pragma-only basic kernel, an exhibit row
// that no registered variant runs, still refuses one.
TEST(Dividends, OnlyTheBasicKernelRejectsYield) {
  core::Portfolio aos_book = core::Portfolio::bs(203, core::Layout::kBsAos, 92);
  core::Portfolio soa_book = core::Portfolio::bs(203, core::Layout::kBsSoa, 92);
  core::BsAosView aos = aos_book.view().aos;
  core::BsSoaView soa = soa_book.view().soa;
  aos.dividend = soa.dividend = 0.02;
  EXPECT_THROW(bs::price_basic(aos), std::invalid_argument);
  bs::price_reference(aos);
  bs::price_advanced_vml(soa);
  for (std::size_t i = 0; i < soa.size(); ++i) {
    const core::BsOptionAos& o = aos.options[i];
    const auto exact = core::black_scholes(o.spot, o.strike, o.years, aos.rate, aos.vol, 0.02);
    EXPECT_NEAR(o.call, exact.call, 1e-12 * std::max(1.0, exact.call)) << i;
    EXPECT_NEAR(o.put, exact.put, 1e-12 * std::max(1.0, exact.put)) << i;
    const auto soa_exact = core::black_scholes(soa.spot[i], soa.strike[i], soa.years[i],
                                               soa.rate, soa.vol, 0.02);
    EXPECT_NEAR(soa.call[i], soa_exact.call, 1e-8 * std::max(1.0, soa_exact.call)) << i;
    EXPECT_NEAR(soa.put[i], soa_exact.put, 1e-8 * std::max(1.0, soa_exact.put)) << i;
  }
}

}  // namespace
