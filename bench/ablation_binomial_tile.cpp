// Ablation: binomial-tree register-tile depth. The paper picks the tile
// size so the Tile array fits the register file (Sec. IV-B2); this sweep
// shows the tradeoff — deeper tiles amortize more loads/stores per Call
// value until the tile spills.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"

using namespace finbench;
using namespace finbench::kernels;

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const std::size_t nopt = opts.full ? 128 : 48;
  const int steps = opts.full ? 2048 : 1024;

  const auto workload = core::make_option_workload(nopt, 2);
  std::vector<double> out(nopt);

  std::printf("\n===============================================================\n");
  std::printf("Ablation: binomial register-tile depth (N = %d, nopt = %zu)\n", steps, nopt);
  std::printf("===============================================================\n");
  std::printf("  %-28s %14s %14s\n", "variant", "4-wide opt/s", "8-wide opt/s");

  // Every row spreads its kernel over the engine pool in ranges of whole
  // lane groups of its width.
  const std::size_t w8 = static_cast<std::size_t>(simd::kMaxVectorWidth);
  auto rate = [&](const char* label, std::size_t lanes, auto&& kernel) {
    return bench::items_per_sec(label, nopt, opts.reps, [&] {
      bench::on_pool(nopt, lanes, [&](std::size_t b, std::size_t e) {
        kernel(std::span(workload).subspan(b, e - b), std::span(out).subspan(b, e - b));
      });
    });
  };
  const double untiled4 = rate("binomial_tile.untiled4", 4, [&](auto opts_, auto out_) {
    binomial::price_intermediate(opts_, steps, out_, binomial::Width::kAvx2);
  });
  const double untiled8 = rate("binomial_tile.untiled8", w8, [&](auto opts_, auto out_) {
    binomial::price_intermediate(opts_, steps, out_, binomial::Width::kAuto);
  });
  std::printf("  %-28s %14.0f %14.0f\n", "untiled (TS=1 equivalent)", untiled4, untiled8);

  double best8 = 0;
  int best_ts = 0;
  for (int ts : {4, 8, 16, 32, 64}) {
    const double r4 = rate("binomial_tile.r4", 4, [&](auto opts_, auto out_) {
      binomial::price_advanced_tile(opts_, steps, out_, ts, binomial::Width::kAvx2);
    });
    const double r8 = rate("binomial_tile.r8", w8, [&](auto opts_, auto out_) {
      binomial::price_advanced_tile(opts_, steps, out_, ts, binomial::Width::kAuto);
    });
    std::printf("  tile depth TS=%-14d %14.0f %14.0f\n", ts, r4, r8);
    if (r8 > best8) {
      best8 = r8;
      best_ts = ts;
    }
  }
  std::printf("  best 8-wide tile depth: TS=%d (%.2fx over untiled)\n", best_ts,
              best8 / untiled8);
  std::printf("  [%s] some tile depth beats the untiled kernel\n",
              best8 > untiled8 ? "PASS" : "FAIL");
  return 0;
}
