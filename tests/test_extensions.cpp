// Tests for the smaller extensions: digital-option closed forms, the
// Broadie–Detemple smoothed binomial (BBS/BBSR), and the single-precision
// array math API.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/kernels/lattice.hpp"
#include "finbench/rng/normal.hpp"
#include "finbench/vecmath/array_math.hpp"
#include "float_lanes.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

// --- Digital options -----------------------------------------------------------

TEST(Digital, DecomposesTheVanillaCall) {
  // call = asset_call - K * cash_call; put = K * cash_put - asset_put.
  const auto opts = core::make_option_workload(300, 41);
  for (const auto& o : opts) {
    const core::BsPrice v = core::black_scholes(o.spot, o.strike, o.years, o.rate, o.vol);
    const core::BsDigital d =
        core::black_scholes_digital(o.spot, o.strike, o.years, o.rate, o.vol);
    EXPECT_NEAR(v.call, d.asset_call - o.strike * d.cash_call, 1e-10 * std::max(1.0, v.call));
    EXPECT_NEAR(v.put, o.strike * d.cash_put - d.asset_put, 1e-10 * std::max(1.0, v.put));
  }
}

TEST(Digital, CashLegsSumToDiscountBond) {
  const core::BsDigital d = core::black_scholes_digital(100, 90, 2.0, 0.04, 0.3);
  EXPECT_NEAR(d.cash_call + d.cash_put, std::exp(-0.04 * 2.0), 1e-12);
}

TEST(Digital, AssetLegsSumToSpot) {
  const core::BsDigital d = core::black_scholes_digital(100, 90, 2.0, 0.04, 0.3);
  EXPECT_NEAR(d.asset_call + d.asset_put, 100.0, 1e-10);
}

TEST(Digital, MatchesMonteCarloProbability) {
  const double s = 100, k = 105, t = 1, r = 0.05, vol = 0.2;
  const core::BsDigital d = core::black_scholes_digital(s, k, t, r, vol);
  // P(S_T > K) estimated directly.
  rng::NormalStream stream(9);
  constexpr int kN = 200000;
  std::vector<double> z(kN);
  stream.fill(z);
  const double mu = (r - 0.5 * vol * vol) * t;
  int hits = 0;
  for (double zz : z) hits += s * std::exp(mu + vol * std::sqrt(t) * zz) > k;
  const double p_itm = static_cast<double>(hits) / kN;
  EXPECT_NEAR(d.cash_call, std::exp(-r * t) * p_itm, 5e-3);
}

TEST(Digital, DegenerateCases) {
  const core::BsDigital d = core::black_scholes_digital(120, 100, 0.0, 0.05, 0.2);
  EXPECT_DOUBLE_EQ(d.cash_call, 1.0);
  EXPECT_DOUBLE_EQ(d.cash_put, 0.0);
  EXPECT_DOUBLE_EQ(d.asset_call, 120.0);
}

// --- BBS / BBSR ------------------------------------------------------------------

TEST(Bbs, SmoothingBeatsPlainCrrAtEqualSteps) {
  const core::OptionSpec o{100, 103, 1.0, 0.05, 0.25, core::OptionType::kPut,
                           core::ExerciseStyle::kEuropean};
  const double exact = core::black_scholes_price(o);
  const double crr_err = std::fabs(binomial::price_one_reference(o, 128) - exact);
  const double bbs_err = std::fabs(lattice::price_bbs(o, 128) - exact);
  EXPECT_LT(bbs_err, crr_err);
}

TEST(Bbsr, ExtrapolationConvergesFast) {
  const core::OptionSpec o{100, 110, 1.5, 0.04, 0.3, core::OptionType::kPut,
                           core::ExerciseStyle::kEuropean};
  const double exact = core::black_scholes_price(o);
  EXPECT_NEAR(lattice::price_bbsr(o, 128), exact, 2e-3);
  EXPECT_NEAR(lattice::price_bbsr(o, 512), exact, 5e-5);
}

TEST(Bbsr, AmericanPutMatchesHighResolutionCrr) {
  core::OptionSpec o{100, 100, 1.0, 0.05, 0.2, core::OptionType::kPut,
                     core::ExerciseStyle::kAmerican};
  const double dense = binomial::price_one_reference(o, 8192);
  // BBSR with a fraction of the steps should land very close.
  EXPECT_NEAR(lattice::price_bbsr(o, 256), dense, 2e-3);
}

TEST(Bbs, AmericanAtLeastIntrinsicAndEuropean) {
  core::OptionSpec am{85, 100, 1.0, 0.07, 0.25, core::OptionType::kPut,
                      core::ExerciseStyle::kAmerican};
  const double v = lattice::price_bbs(am, 200);
  EXPECT_GE(v, 15.0 - 1e-9);
  core::OptionSpec eu = am;
  eu.style = core::ExerciseStyle::kEuropean;
  EXPECT_GT(v, core::black_scholes_price(eu));
}

// --- Float array math -------------------------------------------------------------

class ArrayMathFTest : public ::testing::TestWithParam<test::FloatLanes> {
 protected:
  static vecmath::Width width() { return test::width_of(GetParam()); }
};
INSTANTIATE_TEST_SUITE_P(Widths, ArrayMathFTest, ::testing::ValuesIn(test::kAllFloatLanes));

TEST_P(ArrayMathFTest, ExpfMatchesLibmWithTails) {
  for (std::size_t n : {0UL, 1UL, 7UL, 15UL, 16UL, 17UL, 100UL}) {
    std::vector<float> in(n), out(n);
    std::mt19937 gen(static_cast<unsigned>(n));
    std::uniform_real_distribution<float> d(-60.0f, 60.0f);
    for (auto& x : in) x = d(gen);
    vecmath::expf(in, out, width());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[i], std::exp(in[i]), 4e-7f * std::exp(in[i])) << i;
    }
  }
}

TEST_P(ArrayMathFTest, LogfErffCndfAgree) {
  std::vector<float> in(133), out(133);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0.05f * static_cast<float>(i) + 0.01f;
  vecmath::logf(in, out, width());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], std::log(in[i]), 4e-7f * std::max(1.0f, std::fabs(std::log(in[i]))));
  }
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0.06f * static_cast<float>(i) - 4.0f;
  vecmath::erff(in, out, width());
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_NEAR(out[i], std::erf(in[i]), 6e-7f);
  vecmath::cndf(in, out, width());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], 0.5 * std::erfc(-in[i] * 0.7071067811865475), 6e-7f);
  }
}

TEST(ArrayMathF, InPlaceAliasing) {
  std::vector<float> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.1f * static_cast<float>(i) - 3.0f;
  std::vector<float> expect(x);
  for (auto& v : expect) v = std::exp(v);
  vecmath::expf(x, x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], expect[i], 4e-7f * expect[i]);
}

}  // namespace
