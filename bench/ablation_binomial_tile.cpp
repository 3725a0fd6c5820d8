// Ablation: binomial-tree register-tile depth. The paper picks the tile
// size so the Tile array fits the register file (Sec. IV-B2); this sweep
// shows the tradeoff — deeper tiles amortize more loads/stores per Call
// value until the tile spills. A second table times American options at
// uniform depth 768 on one thread: the level pass (price_intermediate)
// against the American register tiles (price_advanced), in Gnode/s.

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

  // American exercise, one thread: the level pass walks every level
  // through memory with its serial node-spot chain; the tiles keep four
  // levels and their node spots in registers.
  constexpr int kAmericanSteps = 768;
  core::SingleOptionWorkloadParams am;
  am.style = core::ExerciseStyle::kAmerican;
  const std::size_t nam = opts.full ? 128 : 32;
  const auto american = core::make_option_workload(nam, 3, am);
  std::vector<double> am_out(nam);
  const double nodes_per_option = kAmericanSteps * (kAmericanSteps + 1) / 2.0;
  auto gnodes = [&](const char* label, auto&& kernel) {
    return bench::items_per_sec(label, nam, opts.reps, [&] { kernel(american, am_out); }) *
           nodes_per_option * 1e-9;
  };
  std::printf("\n  American, depth %d, one thread %14s %14s\n", kAmericanSteps, "4-wide Gnode/s",
              "8-wide Gnode/s");
  double level[2], tiled[2];
  for (int k = 0; k < 2; ++k) {
    const binomial::Width w = k == 0 ? binomial::Width::kAvx2 : binomial::Width::kAuto;
    level[k] = gnodes("binomial_tile.american_level", [&](const auto& in, auto& out_) {
      binomial::price_intermediate(in, kAmericanSteps, out_, w);
    });
    tiled[k] = gnodes("binomial_tile.american_tiled", [&](const auto& in, auto& out_) {
      binomial::price_advanced(in, kAmericanSteps, out_, w);
    });
  }
  std::printf("  %-28s %14.2f %14.2f\n", "level pass (intermediate)", level[0], level[1]);
  std::printf("  %-28s %14.2f %14.2f\n", "register tiles (advanced)", tiled[0], tiled[1]);
  std::printf("  [%s] American register tiles beat the level pass\n",
              tiled[1] > level[1] ? "PASS" : "FAIL");
  return 0;
}
