// Tests for the SIMD batch-greeks kernel against the scalar analytic
// greeks, across widths and batch sizes (including SIMD tails).

#include <gtest/gtest.h>

#include <cmath>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/blackscholes.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

class GreeksWidthTest : public ::testing::TestWithParam<bs::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, GreeksWidthTest,
                         ::testing::Values(bs::Width::kScalar, bs::Width::kAvx2,
                                           bs::Width::kAvx512, bs::Width::kAuto));

TEST_P(GreeksWidthTest, MatchesAnalyticGreeks) {
  for (std::size_t n : {1UL, 5UL, 8UL, 9UL, 64UL, 333UL}) {
    core::Portfolio book = core::Portfolio::bs(n, core::Layout::kBsSoa, 17);
    const core::BsSoaView batch = book.view().soa;
    bs::GreeksBatchSoa g;
    bs::greeks_intermediate(batch, g, GetParam());
    ASSERT_EQ(g.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      core::OptionSpec o{batch.spot[i], batch.strike[i], batch.years[i], batch.rate,
                         batch.vol, core::OptionType::kCall, core::ExerciseStyle::kEuropean};
      const core::BsGreeks gc = core::black_scholes_greeks(o);
      o.type = core::OptionType::kPut;
      const core::BsGreeks gp = core::black_scholes_greeks(o);
      const double tol = 1e-9;
      EXPECT_NEAR(g.delta_call[i], gc.delta, tol) << i;
      EXPECT_NEAR(g.delta_put[i], gp.delta, tol) << i;
      EXPECT_NEAR(g.gamma[i], gc.gamma, tol * std::max(1.0, gc.gamma)) << i;
      EXPECT_NEAR(g.vega[i], gc.vega, tol * std::max(1.0, gc.vega)) << i;
      EXPECT_NEAR(g.theta_call[i], gc.theta, 1e-8 * std::max(1.0, std::fabs(gc.theta))) << i;
      EXPECT_NEAR(g.theta_put[i], gp.theta, 1e-8 * std::max(1.0, std::fabs(gp.theta))) << i;
      EXPECT_NEAR(g.rho_call[i], gc.rho, 1e-8 * std::max(1.0, std::fabs(gc.rho))) << i;
      EXPECT_NEAR(g.rho_put[i], gp.rho, 1e-8 * std::max(1.0, std::fabs(gp.rho))) << i;
    }
  }
}

TEST_P(GreeksWidthTest, ParityRelationsHold) {
  core::Portfolio book = core::Portfolio::bs(256, core::Layout::kBsSoa, 23);
  const core::BsSoaView batch = book.view().soa;
  bs::GreeksBatchSoa g;
  bs::greeks_intermediate(batch, g, GetParam());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // delta_call - delta_put = 1; rho_call - rho_put = K T e^{-rT}.
    EXPECT_NEAR(g.delta_call[i] - g.delta_put[i], 1.0, 1e-12);
    const double ktdf =
        batch.strike[i] * batch.years[i] * std::exp(-batch.rate * batch.years[i]);
    EXPECT_NEAR(g.rho_call[i] - g.rho_put[i], ktdf, 1e-9 * std::max(1.0, ktdf));
  }
}

TEST(GreeksKernel, GreeksAreFiniteDifferencesOfKernelPrices) {
  // Cross-validate the kernel against itself: bump-and-reprice deltas from
  // price_intermediate should match the analytic deltas from
  // greeks_intermediate.
  const std::size_t n = 64;
  core::Portfolio base_book = core::Portfolio::bs(n, core::Layout::kBsSoa, 29);
  core::Portfolio up_book = core::Portfolio::bs(n, core::Layout::kBsSoa, 29);
  core::Portfolio dn_book = core::Portfolio::bs(n, core::Layout::kBsSoa, 29);
  const core::BsSoaView base = base_book.view().soa, up = up_book.view().soa,
                        dn = dn_book.view().soa;
  const double h = 1e-4;
  for (std::size_t i = 0; i < n; ++i) {
    up.spot[i] += h;
    dn.spot[i] -= h;
  }
  bs::price_intermediate(up);
  bs::price_intermediate(dn);
  bs::GreeksBatchSoa g;
  bs::greeks_intermediate(base, g);
  for (std::size_t i = 0; i < n; ++i) {
    const double delta_fd = (up.call[i] - dn.call[i]) / (2 * h);
    EXPECT_NEAR(g.delta_call[i], delta_fd, 1e-6) << i;
    const double gamma_fd = (up.call[i] - 2 * (up.call[i] + dn.call[i]) / 2 + dn.call[i]);
    (void)gamma_fd;  // gamma needs the center price; checked via analytic above
  }
}

TEST(GreeksKernel, DeltaBounds) {
  core::Portfolio book = core::Portfolio::bs(1000, core::Layout::kBsSoa, 37);
  const core::BsSoaView batch = book.view().soa;
  bs::GreeksBatchSoa g;
  bs::greeks_intermediate(batch, g);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_GE(g.delta_call[i], -1e-12);
    EXPECT_LE(g.delta_call[i], 1.0 + 1e-12);
    EXPECT_GE(g.delta_put[i], -1.0 - 1e-12);
    EXPECT_LE(g.delta_put[i], 1e-12);
    EXPECT_GE(g.gamma[i], 0.0);
    EXPECT_GE(g.vega[i], 0.0);
  }
}

}  // namespace
