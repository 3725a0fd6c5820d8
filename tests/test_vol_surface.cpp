// Tests for the implied-volatility surface container: node recovery,
// total-variance interpolation and arbitrage checks.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "finbench/core/vol_surface.hpp"

namespace {

using namespace finbench;
using namespace finbench::core;

VolSurface flat_surface(double vol = 0.2) {
  const std::vector<double> strikes = {80, 100, 120};
  const std::vector<double> expiries = {0.5, 1.0, 2.0};
  const std::vector<double> vols(9, vol);
  return VolSurface::from_grid(strikes, expiries, vols);
}

TEST(VolSurface, RecoversNodeValues) {
  const std::vector<double> strikes = {80, 100, 120};
  const std::vector<double> expiries = {0.5, 2.0};
  const std::vector<double> vols = {0.30, 0.25, 0.22,   //
                                    0.28, 0.24, 0.215};
  const auto s = VolSurface::from_grid(strikes, expiries, vols);
  for (std::size_t e = 0; e < expiries.size(); ++e) {
    for (std::size_t k = 0; k < strikes.size(); ++k) {
      EXPECT_NEAR(s.vol(strikes[k], expiries[e]), vols[e * 3 + k], 1e-12) << e << "," << k;
    }
  }
}

TEST(VolSurface, FlatSurfaceStaysFlatEverywhere) {
  const auto s = flat_surface(0.2);
  for (double k : {80.0, 90.0, 107.5, 120.0, 60.0, 150.0}) {
    for (double t : {0.5, 0.75, 1.5, 2.0, 3.0}) {
      EXPECT_NEAR(s.vol(k, t), 0.2, 1e-12) << k << "," << t;
    }
  }
}

TEST(VolSurface, TotalVarianceInterpolatesLinearlyInExpiry) {
  const std::vector<double> strikes = {90, 110};
  const std::vector<double> expiries = {1.0, 2.0};
  // w(1) = 0.04, w(2) = 0.10 at both strikes.
  const double v1 = 0.2, v2 = std::sqrt(0.10 / 2.0);
  const std::vector<double> vols = {v1, v1, v2, v2};
  const auto s = VolSurface::from_grid(strikes, expiries, vols);
  EXPECT_NEAR(s.total_variance(100, 1.5), 0.07, 1e-12);  // midpoint in w
}

TEST(VolSurface, ShortExpiryExtrapolationScalesVarianceToZero) {
  const auto s = flat_surface(0.3);
  // w(T) = w(T_min) * T/T_min below the grid: implied vol stays flat.
  EXPECT_NEAR(s.vol(100, 0.1), 0.3, 1e-12);
  EXPECT_NEAR(s.total_variance(100, 0.25), 0.3 * 0.3 * 0.25, 1e-12);
}

TEST(VolSurface, CalendarArbitrageDetection) {
  const std::vector<double> strikes = {90, 110};
  const std::vector<double> expiries = {1.0, 2.0};
  // Decreasing total variance at strike 0: 0.09 -> 0.045 (vol 0.3 -> 0.15).
  const std::vector<double> bad = {0.30, 0.20, 0.15, 0.20};
  const auto s_bad = VolSurface::from_grid(strikes, expiries, bad);
  EXPECT_FALSE(s_bad.calendar_arbitrage_free());
  EXPECT_TRUE(flat_surface().calendar_arbitrage_free());
}

TEST(VolSurface, RejectsMalformedGrids) {
  const std::vector<double> s2 = {100, 90};  // not increasing
  const std::vector<double> e2 = {0.5, 1.0};
  const std::vector<double> v4 = {0.2, 0.2, 0.2, 0.2};
  EXPECT_THROW(VolSurface::from_grid(s2, e2, v4), std::invalid_argument);
  const std::vector<double> s_ok = {90, 100};
  EXPECT_THROW(VolSurface::from_grid(s_ok, e2, {v4.data(), 3}), std::invalid_argument);
  const std::vector<double> v_neg = {0.2, -0.1, 0.2, 0.2};
  EXPECT_THROW(VolSurface::from_grid(s_ok, e2, v_neg), std::invalid_argument);
  EXPECT_THROW(flat_surface().vol(-5.0, 1.0), std::invalid_argument);
  EXPECT_THROW(flat_surface().vol(100.0, 0.0), std::invalid_argument);
}

}  // namespace
