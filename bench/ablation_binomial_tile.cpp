// Ablation: binomial-tree register-tile depth. The paper picks the tile
// size so the Tile array fits the register file (Sec. IV-B2); this sweep
// shows the tradeoff — deeper tiles amortize more loads/stores per Call
// value until the tile spills. The default variants tile 16 levels at 8
// wide and 8 at 4 wide. Further rows time American options at uniform
// depth 768 on one thread: the level pass (price_intermediate) against
// the American register tiles (price_advanced); their Gnode/s are notes.

#include <string>
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
  bench::Projector proj;
  harness::Report report("Ablation: binomial register-tile depth, N = " + std::to_string(steps),
                         "options/s");
  report.add_note("nopt = " + std::to_string(nopt) + "; 3N(N+1)/2 flops per option");
  const double flops = binomial::flops_per_option(steps);

  // Every row spreads its kernel over the engine pool in ranges of whole
  // lane groups of its width.
  const int w8 = simd::kMaxVectorWidth;
  auto rate = [&](const char* label, int lanes, auto&& kernel) {
    return bench::items_per_sec(label, nopt, opts.reps, [&] {
      bench::on_pool(nopt, static_cast<std::size_t>(lanes), [&](std::size_t b, std::size_t e) {
        kernel(std::span(workload).subspan(b, e - b), std::span(out).subspan(b, e - b));
      });
    });
  };
  auto row = [&](const std::string& label, double r, int lanes) {
    report.add_row(proj.make_row(label + " " + std::to_string(lanes) + "w", r, flops, 0, lanes,
                                 lanes));
  };
  const double untiled4 = rate("binomial_tile.untiled4", 4, [&](auto opts_, auto out_) {
    binomial::price_intermediate(opts_, steps, out_, binomial::Width::kAvx2);
  });
  const double untiled8 = rate("binomial_tile.untiled8", w8, [&](auto opts_, auto out_) {
    binomial::price_intermediate(opts_, steps, out_, binomial::Width::kAuto);
  });
  row("untiled (TS=1 equivalent)", untiled4, 4);
  row("untiled (TS=1 equivalent)", untiled8, w8);

  double best4 = 0, best8 = 0;
  int best_ts4 = 0, best_ts8 = 0;
  for (int ts : {4, 8, 16, 32, 64}) {
    const double r4 = rate("binomial_tile.r4", 4, [&](auto opts_, auto out_) {
      binomial::price_advanced_tile(opts_, steps, out_, ts, binomial::Width::kAvx2);
    });
    const double r8 = rate("binomial_tile.r8", w8, [&](auto opts_, auto out_) {
      binomial::price_advanced_tile(opts_, steps, out_, ts, binomial::Width::kAuto);
    });
    row("tile depth TS=" + std::to_string(ts), r4, 4);
    row("tile depth TS=" + std::to_string(ts), r8, w8);
    if (r4 > best4) {
      best4 = r4;
      best_ts4 = ts;
    }
    if (r8 > best8) {
      best8 = r8;
      best_ts8 = ts;
    }
  }
  report.add_note("best tile depth: TS=" + std::to_string(best_ts4) + " at 4 wide, TS=" +
                  std::to_string(best_ts8) + " at " + std::to_string(w8) + " wide");
  report.add_check("some tile depth beats the untiled kernel", best8 > untiled8,
                   std::to_string(best8 / untiled8) + "x at " + std::to_string(w8) + " wide");

  // American exercise, one thread: the level pass walks every level
  // through memory with its serial node-spot chain; the tiles keep four
  // levels and their node spots in registers.
  constexpr int kAmericanSteps = 768;
  core::SingleOptionWorkloadParams am;
  am.style = core::ExerciseStyle::kAmerican;
  const std::size_t nam = opts.full ? 128 : 32;
  const auto american = core::make_option_workload(nam, 3, am);
  std::vector<double> am_out(nam);
  const double am_flops = binomial::flops_per_option(kAmericanSteps);
  const double nodes_per_option = kAmericanSteps * (kAmericanSteps + 1) / 2.0;
  double level[2], tiled[2];
  for (int k = 0; k < 2; ++k) {
    const int lanes = k == 0 ? 4 : w8;
    const binomial::Width w = k == 0 ? binomial::Width::kAvx2 : binomial::Width::kAuto;
    level[k] = bench::items_per_sec("binomial_tile.american_level", nam, opts.reps, [&] {
      binomial::price_intermediate(american, kAmericanSteps, am_out, w);
    });
    tiled[k] = bench::items_per_sec("binomial_tile.american_tiled", nam, opts.reps, [&] {
      binomial::price_advanced(american, kAmericanSteps, am_out, w);
    });
    const std::string width = std::to_string(lanes) + "w";
    report.add_row(proj.make_row("American N=768 level pass, one thread " + width, level[k],
                                 am_flops, 0, lanes, lanes));
    report.add_row(proj.make_row("American N=768 register tiles, one thread " + width, tiled[k],
                                 am_flops, 0, lanes, lanes));
    report.add_note("American N=768, one thread, " + width + ": level pass " +
                    std::to_string(level[k] * nodes_per_option * 1e-9) +
                    " Gnode/s, register tiles " +
                    std::to_string(tiled[k] * nodes_per_option * 1e-9) + " Gnode/s");
  }
  report.add_check("American register tiles beat the level pass", tiled[1] > level[1],
                   std::to_string(tiled[1] / level[1]) + "x at " + std::to_string(w8) + " wide");

  bench::finish(report, opts);
  return 0;
}
