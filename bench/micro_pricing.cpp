// google-benchmark microbenchmarks for the pricing layer: per-option cost
// of the closed forms, greeks, implied vol, and one lattice/PDE/MC solve —
// the numbers a capacity-planning user wants.

#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/kernels/cranknicolson.hpp"
#include "finbench/kernels/lattice.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

const auto kOpts = core::make_option_workload(512, 71);

void BM_AnalyticPrice(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::black_scholes_price(kOpts[i++ & 511]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyticPrice);

void BM_AnalyticGreeks(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::black_scholes_greeks(kOpts[i++ & 511]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyticGreeks);

void BM_ImpliedVol(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& o = kOpts[i++ & 511];
    benchmark::DoNotOptimize(core::implied_volatility(o, core::black_scholes_price(o)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImpliedVol);

void BM_BatchImpliedVolSimd(benchmark::State& state) {
  core::Portfolio book = core::Portfolio::bs(4096, core::Layout::kBsSoa, 3);
  const core::BsSoaView soa = book.view().soa;
  bs::price_intermediate(soa);
  std::vector<double> vols(soa.size());
  for (auto _ : state) {
    bs::implied_vol_intermediate(soa, soa.call, vols);
    benchmark::DoNotOptimize(vols.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_BatchImpliedVolSimd);

void BM_BinomialCrr(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(binomial::price_one_reference(kOpts[i++ & 511], steps));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialCrr)->Arg(128)->Arg(512);

void BM_LeisenReimer(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lattice::price_leisen_reimer(kOpts[i++ & 511], 101));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeisenReimer);

void BM_CrankNicolsonAmerican(benchmark::State& state) {
  core::OptionSpec o{100, 100, 1.0, 0.05, 0.25, core::OptionType::kPut,
                     core::ExerciseStyle::kAmerican};
  cn::GridSpec g;
  g.num_prices = 257;
  g.num_steps = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cn::price_wavefront_split(o, g).price);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrankNicolsonAmerican);

}  // namespace

FINBENCH_MICRO_MAIN()
