// quickstart: price a batch of European options three ways — closed-form
// Black–Scholes, the SIMD batch kernel, and Monte Carlo — and read off the
// greeks. This is the 5-minute tour of the public API.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/kernels/montecarlo.hpp"

using namespace finbench;

int main() {
  // --- One option, analytically -------------------------------------------
  core::OptionSpec option;
  option.spot = 100.0;
  option.strike = 105.0;
  option.years = 0.75;
  option.rate = 0.04;
  option.vol = 0.22;
  option.type = core::OptionType::kCall;

  const core::BsPrice price =
      core::black_scholes(option.spot, option.strike, option.years, option.rate, option.vol);
  const core::BsGreeks greeks = core::black_scholes_greeks(option);

  std::printf("Single option (S=%.0f K=%.0f T=%.2f r=%.2f vol=%.2f):\n", option.spot,
              option.strike, option.years, option.rate, option.vol);
  std::printf("  call %.6f   put %.6f\n", price.call, price.put);
  std::printf("  delta %.4f  gamma %.5f  vega %.4f  theta %.4f  rho %.4f\n", greeks.delta,
              greeks.gamma, greeks.vega, greeks.theta, greeks.rho);

  // --- A batch, through the SIMD kernel ------------------------------------
  core::Portfolio book = core::Portfolio::bs(1'000'000, core::Layout::kBsSoa, /*seed=*/42);
  const core::BsSoaView batch = book.view().soa;
  kernels::bs::price_intermediate(batch);  // widest SIMD path available
  double sum = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) sum += batch.call[i];
  std::printf("\nPriced %zu options with the SIMD kernel; mean call = %.4f\n", batch.size(),
              sum / static_cast<double>(batch.size()));

  // --- The same option by Monte Carlo --------------------------------------
  std::vector<kernels::mc::McResult> mc(1);
  kernels::mc::price_optimized_computed(std::span(&option, 1), 1 << 18, /*seed=*/7, mc);
  std::printf("\nMonte Carlo (262144 paths): %.6f +/- %.6f  (analytic %.6f)\n", mc[0].price,
              mc[0].std_error, price.call);

  // --- Implied volatility roundtrip ----------------------------------------
  const double iv = core::implied_volatility(option, price.call);
  std::printf("Implied vol recovered from the analytic price: %.6f (true %.2f)\n", iv,
              option.vol);
  return 0;
}
