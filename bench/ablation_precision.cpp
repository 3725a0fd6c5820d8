// Ablation: single versus double precision on the Black–Scholes kernel —
// the throughput/accuracy trade behind Table I's separate SP/DP peak rows
// (691 vs 346 GF/s on SNB-EP, 2127 vs 1063 on KNC).

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/blackscholes.hpp"

using namespace finbench;
using namespace finbench::kernels;

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const std::size_t nopt = opts.full ? (1u << 22) : (1u << 19);

  core::Portfolio dp = core::Portfolio::bs(nopt, core::Layout::kBsSoa, 1);
  core::Portfolio sp = core::Portfolio::bs(nopt, core::Layout::kBsSoaF, 1);

  // Each row spreads the kernel over the engine pool in 64-option ranges
  // (the 8-wide SP build has no registry variant of its own).
  const core::PortfolioView dpv = dp.view(), spv = sp.view();
  auto dp_rate = [&](const char* label, bs::Width w) {
    return bench::items_per_sec(label, nopt, opts.reps, [&] {
      bench::on_pool(nopt, 64, [&](std::size_t b, std::size_t e) {
        bs::price_intermediate(core::subview(dpv, b, e - b).soa, w);
      });
    });
  };
  auto sp_rate = [&](const char* label, bs::Width w) {
    return bench::items_per_sec(label, nopt, opts.reps, [&] {
      bench::on_pool(nopt, 64, [&](std::size_t b, std::size_t e) {
        bs::price_intermediate_sp(core::subview(spv, b, e - b).sp, w);
      });
    });
  };
  const double r4 = dp_rate("precision.r4", bs::Width::kAvx2);
  const double r8 = dp_rate("precision.r8", bs::Width::kAuto);
  const double r8f = sp_rate("precision.r8f", bs::Width::kAvx2);
  const double r16f = sp_rate("precision.r16f", bs::Width::kAuto);

  // Accuracy of the SP result against the DP one. Tiny premiums make raw
  // relative error meaningless (a 1e-5 absolute error on a 1e-3 premium is
  // 1%); scale by max(price, 1% of spot) — the error a book would see.
  double worst_rel = 0.0, mean_rel = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < nopt; i += 17) {
    const double scale = std::max(dpv.soa.call[i], 0.01 * dpv.soa.spot[i]);
    const double rel = std::fabs(spv.sp.call[i] - dpv.soa.call[i]) / scale;
    worst_rel = std::max(worst_rel, rel);
    mean_rel += rel;
    ++counted;
  }
  mean_rel /= static_cast<double>(counted);

  std::printf("\n===============================================================\n");
  std::printf("Ablation: precision (Black-Scholes intermediate, %zu options)\n", nopt);
  std::printf("===============================================================\n");
  std::printf("  %-28s %14s\n", "path", "options/s");
  std::printf("  %-28s %14.0f\n", "double, 4-wide (AVX2)", r4);
  std::printf("  %-28s %14.0f\n", "double, 8-wide (AVX-512)", r8);
  std::printf("  %-28s %14.0f\n", "float,  8-wide (AVX2)", r8f);
  std::printf("  %-28s %14.0f\n", "float, 16-wide (AVX-512)", r16f);
  std::printf("\n  SP speedup over DP at full width: %.2fx\n", r16f / r8);
  std::printf("  SP accuracy vs DP (relative to max(price, 1%% of spot)):\n");
  std::printf("    mean relative error  %.2e\n", mean_rel);
  std::printf("    worst relative error %.2e\n", worst_rel);
  std::printf("  [%s] SP is faster and within ~1e-4 relative of DP\n",
              (r16f > 1.5 * r8 && worst_rel < 1e-4) ? "PASS" : "FAIL");
  std::printf("  (Table I's SP rows exist because this trade is often worth it\n"
              "   for risk scenarios; never for P&L-critical pricing.)\n");
  return 0;
}
