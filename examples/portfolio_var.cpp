// portfolio_var: one-day value-at-risk of an options book by full
// revaluation Monte Carlo. Simulates overnight moves of the underlying
// (GBM), reprices every position with the SIMD Black–Scholes kernel under
// each scenario, and reports the P&L distribution's VaR and expected
// shortfall — the risk-management workload class the paper's introduction
// motivates (STAC-style "risk management and pricing").

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/rng/normal.hpp"

using namespace finbench;

namespace {

struct Position {
  double strike;
  double years;
  core::OptionType type;
  double quantity;  // signed: negative = short
};

}  // namespace

int main() {
  const double spot = 100.0, rate = 0.03, vol = 0.25;
  const double horizon = 1.0 / 252.0;  // one trading day
  const std::size_t nscenarios = 100000;

  // A small book: long calls, short puts, a short straddle.
  const std::vector<Position> book = {
      {95.0, 0.50, core::OptionType::kCall, +100},
      {105.0, 0.50, core::OptionType::kCall, +50},
      {90.0, 0.25, core::OptionType::kPut, -80},
      {100.0, 1.00, core::OptionType::kCall, -40},
      {100.0, 1.00, core::OptionType::kPut, -40},
  };

  // Value today.
  double value_today = 0.0;
  for (const auto& p : book) {
    const core::BsPrice bs = core::black_scholes(spot, p.strike, p.years, rate, vol);
    value_today += p.quantity * (p.type == core::OptionType::kCall ? bs.call : bs.put);
  }

  // Simulate overnight spots: S' = S exp((r - vol^2/2) h + vol sqrt(h) Z).
  std::vector<double> z(nscenarios);
  rng::NormalStream stream(/*seed=*/2024);
  stream.fill(z);
  const double mu = (rate - 0.5 * vol * vol) * horizon;
  const double sig = vol * std::sqrt(horizon);

  // Batch-reprice: one SOA batch per position across all scenarios. The
  // book's drawn inputs are overwritten; only its storage and the shared
  // rate and vol are kept.
  std::vector<double> pnl(nscenarios, -value_today);
  core::WorkloadParams params;
  params.rate = rate;
  params.vol = vol;
  core::Portfolio scenarios = core::Portfolio::bs(nscenarios, core::Layout::kBsSoa, 0, params);
  const core::BsSoaView batch = scenarios.view().soa;
  for (const auto& p : book) {
    for (std::size_t s = 0; s < nscenarios; ++s) {
      batch.spot[s] = spot * std::exp(mu + sig * z[s]);
      batch.strike[s] = p.strike;
      batch.years[s] = p.years - horizon;
    }
    kernels::bs::price_intermediate(batch);
    const bool call = p.type == core::OptionType::kCall;
    for (std::size_t s = 0; s < nscenarios; ++s) {
      pnl[s] += p.quantity * (call ? batch.call[s] : batch.put[s]);
    }
  }

  std::sort(pnl.begin(), pnl.end());
  auto quantile = [&](double q) { return pnl[static_cast<std::size_t>(q * (nscenarios - 1))]; };
  auto expected_shortfall = [&](double q) {
    const std::size_t k = static_cast<std::size_t>(q * nscenarios);
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) acc += pnl[i];
    return acc / static_cast<double>(k);
  };

  std::printf("Options book: %zu positions, value today = %.2f\n", book.size(), value_today);
  std::printf("1-day full-revaluation Monte Carlo, %zu scenarios:\n", nscenarios);
  std::printf("  mean P&L        %10.2f\n",
              std::accumulate(pnl.begin(), pnl.end(), 0.0) / static_cast<double>(nscenarios));
  std::printf("  95%% VaR         %10.2f\n", -quantile(0.05));
  std::printf("  99%% VaR         %10.2f\n", -quantile(0.01));
  std::printf("  99%% ES (CVaR)   %10.2f\n", -expected_shortfall(0.01));
  std::printf("  best / worst    %10.2f / %.2f\n", pnl.back(), pnl.front());
  return 0;
}
