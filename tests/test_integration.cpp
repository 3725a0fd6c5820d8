// Cross-module integration tests: the three numerical methods (lattice,
// PDE, Monte Carlo) must agree with each other and with the closed form on
// the same options — the end-to-end consistency a downstream user relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/kernels/brownian.hpp"
#include "finbench/kernels/cranknicolson.hpp"
#include "finbench/kernels/montecarlo.hpp"
#include "finbench/rng/normal.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

// All four European pricers agree on a batch of random options.
TEST(Integration, FourMethodsAgreeOnEuropeanOptions) {
  core::SingleOptionWorkloadParams params;
  params.type = core::OptionType::kPut;
  params.vol_min = 0.15;  // keep lattice/PDE grids well-conditioned
  params.vol_max = 0.5;
  const auto opts = core::make_option_workload(8, 77, params);

  for (const auto& o : opts) {
    const double exact = core::black_scholes_price(o);

    // Lattice.
    const double lattice = binomial::price_one_reference(o, 2048);
    EXPECT_NEAR(lattice, exact, 5e-3 * std::max(1.0, exact)) << "binomial";

    // PDE.
    cn::GridSpec g;
    g.num_prices = 513;
    g.num_steps = 256;
    const double pde = cn::price_european_thomas(o, g);
    EXPECT_NEAR(pde, exact, 5e-3 * std::max(1.0, exact)) << "cn-thomas";

    // Monte Carlo (within its own confidence interval).
    std::vector<mc::McResult> res(1);
    mc::price_optimized_computed(std::span(&o, 1), 1 << 16, 2027, res);
    EXPECT_NEAR(res[0].price, exact, 5 * res[0].std_error + 1e-3) << "monte-carlo";
  }
}

// American put: lattice and PDE agree; both dominate the European price.
TEST(Integration, AmericanPutLatticeVsPde) {
  core::OptionSpec o{100, 100, 1.0, 0.06, 0.25, core::OptionType::kPut,
                     core::ExerciseStyle::kAmerican};
  const double lattice = binomial::price_one_reference(o, 4096);
  cn::GridSpec g;
  g.num_prices = 513;
  g.num_steps = 512;
  const double pde = cn::price_wavefront_split(o, g).price;
  EXPECT_NEAR(pde, lattice, 1e-2 * lattice);

  core::OptionSpec eu = o;
  eu.style = core::ExerciseStyle::kEuropean;
  EXPECT_GT(lattice, core::black_scholes_price(eu));
}

// A Brownian-bridge-driven Monte Carlo of the terminal value must price a
// European option just like the direct terminal-sampling kernel: the
// bridge's terminal point is sqrt(T) Z, i.e. exactly the GBM driver.
TEST(Integration, BridgeTerminalPricesEuropeanOption) {
  const core::OptionSpec o{100, 105, 1.0, 0.05, 0.2, core::OptionType::kCall,
                           core::ExerciseStyle::kEuropean};
  const int depth = 5;
  const auto sched = brownian::BridgeSchedule::uniform(depth, o.years);
  const std::size_t nsim = 1 << 16;

  std::vector<double> paths(nsim * sched.num_points());
  brownian::construct_advanced_interleaved(sched, 11, nsim, paths);

  const double mu = (o.rate - 0.5 * o.vol * o.vol) * o.years;
  const double df = std::exp(-o.rate * o.years);
  double sum = 0.0, sum2 = 0.0;
  const double* terminal = paths.data() + (sched.num_points() - 1) * nsim;
  for (std::size_t s = 0; s < nsim; ++s) {
    // W(T) ~ N(0, T); GBM terminal: S exp(mu + vol W(T)).
    const double st = o.spot * std::exp(mu + o.vol * terminal[s]);
    const double pay = std::max(st - o.strike, 0.0);
    sum += pay;
    sum2 += pay * pay;
  }
  const double mean = sum / nsim;
  const double se = std::sqrt((sum2 / nsim - mean * mean) / nsim);
  EXPECT_NEAR(df * mean, core::black_scholes_price(o), 5 * df * se);
}

// Asian-style arithmetic-average payoff via the fused bridge consumer: the
// average of a Brownian path has known mean (0) and variance; sanity-check
// the fused pipeline end to end against theory.
TEST(Integration, FusedBridgeAverageVariance) {
  const int depth = 6;  // 64 steps, the paper's Fig. 6 configuration
  const auto sched = brownian::BridgeSchedule::uniform(depth, 1.0);
  const std::size_t nsim = 200000;
  std::vector<double> avg(nsim);
  brownian::construct_advanced_fused(sched, 19, nsim, avg);
  double mean = 0, var = 0;
  for (double a : avg) mean += a;
  mean /= static_cast<double>(nsim);
  for (double a : avg) var += (a - mean) * (a - mean);
  var /= static_cast<double>(nsim);
  // Var( (1/n) sum W(t_i) ) with t_i = i/n: (1/n^2) sum_ij min(t_i,t_j)
  const std::size_t n = sched.num_points() - 1;
  double want = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      want += std::min(i, j) / static_cast<double>(n);
    }
  }
  want /= static_cast<double>(n * n);
  EXPECT_NEAR(mean, 0.0, 5.0 * std::sqrt(want / nsim));
  EXPECT_NEAR(var, want, 5.0 * want * std::sqrt(2.0 / nsim));
}

// The Black-Scholes kernel and the analytic module are two independent
// implementations of the same formula — cross-check over a big batch.
TEST(Integration, KernelAndAnalyticAgreeAtScale) {
  core::Portfolio book = core::Portfolio::bs(10000, core::Layout::kBsSoa, 31);
  const core::BsSoaView soa = book.view().soa;
  bs::price_intermediate(soa);
  for (std::size_t i = 0; i < soa.size(); i += 97) {
    const auto p = core::black_scholes(soa.spot[i], soa.strike[i], soa.years[i], soa.rate,
                                       soa.vol);
    EXPECT_NEAR(soa.call[i], p.call, 1e-8 * std::max(1.0, p.call));
    EXPECT_NEAR(soa.put[i], p.put, 1e-8 * std::max(1.0, p.put));
  }
}

// Implied-vol roundtrip through the *kernel* (not the analytic module):
// price with the SIMD kernel, invert with the scalar solver.
TEST(Integration, ImpliedVolRecoversKernelVol) {
  core::Portfolio book = core::Portfolio::bs(64, core::Layout::kBsSoa, 41);
  core::BsSoaView soa = book.view().soa;
  soa.vol = 0.37;
  bs::price_intermediate(soa);
  for (std::size_t i = 0; i < soa.size(); i += 7) {
    core::OptionSpec o{soa.spot[i], soa.strike[i], soa.years[i], soa.rate, 0.0,
                       core::OptionType::kCall, core::ExerciseStyle::kEuropean};
    const double iv = core::implied_volatility(o, soa.call[i]);
    EXPECT_NEAR(iv, 0.37, 1e-6) << i;
  }
}

}  // namespace
