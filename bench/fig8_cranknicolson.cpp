// Reproduces Fig. 8: Crank–Nicolson American option pricing (thousands of
// options per second) with 256 underlying prices and 1000 time steps.
//
// Paper anchors (Sec. IV-E3): reference ~2.1K (SNB-EP) / ~2.8K (KNC)
// options/s (KNC only 1.3x faster — GSOR not vectorized); manual wavefront
// SIMD lifts to 4.4K / 7.3K; the data-structure transform reaches 6.4K /
// 11.4K (SIMD gains 3.1x / 4.1x).

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/cranknicolson.hpp"

using namespace finbench;
using namespace finbench::kernels;

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  // Eight options per pool participant at both scales: every row, the
  // 8-option packs included, gets at least one range per participant, so
  // the checks below compare rows run on equal worker counts.
  const std::size_t nopt = 8 * static_cast<std::size_t>(engine::ThreadPool::shared().size());

  cn::GridSpec grid;
  grid.num_prices = 257;  // "256 underlying prices"
  grid.num_steps = opts.full ? 1000 : 250;

  bench::Projector proj;
  harness::Report report("Fig. 8: Crank-Nicolson American pricing (257 prices)", "options/s");
  report.add_note("nopt = " + std::to_string(nopt) + ", time steps = " +
                  std::to_string(grid.num_steps) +
                  (opts.full ? "" : " (quick scale; --full for 1000 steps)"));

  core::SingleOptionWorkloadParams params;
  params.style = core::ExerciseStyle::kAmerican;
  params.vol_min = 0.2;  // keep PSOR iteration counts comparable across options
  params.vol_max = 0.4;
  const auto workload = core::make_option_workload(nopt, 5, params);

  // Flops/option from the reference's PSOR sweeps per step, averaged over
  // every option the exhibit times (their counts differ by 2x and more).
  long sweeps = 0;
  for (const auto& o : workload) sweeps += cn::price_reference(o, grid).total_iterations;
  const double avg_iters =
      static_cast<double>(sweeps) / (static_cast<double>(nopt) * grid.num_steps);
  const double flops = cn::flops_per_option_estimate(grid, avg_iters);
  report.add_note("measured avg PSOR iterations/step over the " + std::to_string(nopt) +
                  " timed options = " + std::to_string(avg_iters));

  const double scale = opts.full ? 1.0 : 1000.0 / 250.0;  // step-count normalization

  // Registry-dispatched: the request mirrors the grid (cn_num_prices x
  // steps); the reference and the 8-wide direct solve select their
  // variant by id. The wavefront rows and the 4-wide (SNB-EP) rows run
  // the kernel's batch driver at width w over the engine pool, in
  // ranges of one option (a pair for the paired solve; one 4-option pack
  // for the direct solve, whose workspace comes from a pool carved
  // before timing).
  engine::PricingRequest req;
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.cn_num_prices = grid.num_prices;
  req.steps = grid.num_steps;
  auto measure = [&](const char* label, const char* id) {
    req.kernel_id = id;
    return bench::measure_variant(label, req, nopt, opts.reps);
  };
  bench::PoolScratch packs(cn::direct_packed_doubles(grid));
  std::vector<double> out(nopt);
  auto direct = [&](const char* label, cn::Variant v, std::size_t align, cn::Width w) {
    return bench::items_per_sec(label, nopt, opts.reps, [&] {
      bench::on_pool(nopt, align, [&](std::size_t b, std::size_t e) {
        cn::price_batch(std::span(workload).subspan(b, e - b), grid, v,
                        std::span(out).subspan(b, e - b), w, &packs.pool);
      });
    });
  };
  constexpr cn::Width k4 = cn::Width::kAvx2, k8 = cn::Width::kAuto;

  const double ref = measure("cn.ref", "cn.reference.scalar");
  const double wf4 = direct("cn.wf4", cn::Variant::kWavefront, 1, k4);
  const double wf8 = direct("cn.wf8", cn::Variant::kWavefront, 1, k8);
  const double split4 = direct("cn.split4", cn::Variant::kWavefrontSplit, 1, k4);
  const double split8 = direct("cn.split8", cn::Variant::kWavefrontSplit, 1, k8);
  const double paired4 = direct("cn.paired4", cn::Variant::kWavefrontSplitPaired, 2, k4);
  const double paired8 = direct("cn.paired8", cn::Variant::kWavefrontSplitPaired, 2, k8);
  // Beyond the paper: options in the lanes, one direct solve per step.
  const double packed8 = measure("cn.packed8", "cn.direct_packed.auto");
  const double packed4 = direct("cn.packed4", cn::Variant::kDirectPacked, 4, k4);
  const double direct_flops = cn::flops_per_option_direct(grid);

  report.add_row(proj.make_row("Reference (scalar GSOR, 1000-step equiv)", ref / scale, flops,
                               0, 1, 1, 2100.0, 2800.0));
  report.add_row(proj.make_row("Manual SIMD (wavefront, gathers) 4w", wf4 / scale, flops, 0, 4,
                               4, 4400.0, std::nullopt));
  report.add_row(proj.make_row("Manual SIMD (wavefront, gathers) 8w", wf8 / scale, flops, 0, 8,
                               8, std::nullopt, 7300.0));
  report.add_row(proj.make_row("Data-structure transform (parity split) 4w", split4 / scale,
                               flops, 0, 4, 4, 6400.0, std::nullopt));
  report.add_row(proj.make_row("Data-structure transform (parity split) 8w", split8 / scale,
                               flops, 0, 8, 8, std::nullopt, 11400.0));
  report.add_row(proj.make_row("  +ILP pairing (beyond paper) 4w", paired4 / scale, flops, 0,
                               4, 4));
  report.add_row(proj.make_row("  +ILP pairing (beyond paper) 8w", paired8 / scale, flops, 0,
                               8, 8));
  report.add_row(proj.make_row("+direct LCP solve, option-packed (beyond paper) 4w",
                               packed4 / scale, direct_flops, 0, 4, 4));
  report.add_row(proj.make_row("+direct LCP solve, option-packed (beyond paper) 8w",
                               packed8 / scale, direct_flops, 0, 8, 8));

  report.add_check("wavefront SIMD beats the scalar reference (paper: ~2.1x)", wf4 > ref,
                   std::to_string(wf4 / ref) + "x");
  // On KNC, stride-2 gathers were microcoded and the contiguous layout was
  // worth ~1.5x; modern cores execute these gathers at near-load cost, so
  // parity is the expected outcome here — the check guards only against
  // the transform *hurting*.
  report.add_check(
      "data-structure transform at least matches gathers (paper: 1.5x on KNC; "
      "~parity expected on modern gather hardware)",
      split4 > 0.8 * wf4, std::to_string(split4 / wf4) + "x");
  report.add_check("total SIMD gain within the paper's 3.1x/4.1x ballpark",
                   harness::ratio_within(paired4 / ref, 3.1, 0.4, 2.0),
                   std::to_string(paired4 / ref) + "x (4-wide, with ILP pairing)");
  report.add_check("ILP pairing recovers the latency-bound wavefront (beyond paper)",
                   paired4 > 1.2 * split4, std::to_string(paired4 / split4) + "x");

  report.add_check("packed direct beats ILP-paired wavefront (beyond paper)",
                   packed4 > paired4 && packed8 > paired8,
                   std::to_string(packed4 / paired4) + "x 4-wide, " +
                       std::to_string(packed8 / paired8) + "x 8-wide");

  bench::finish(report, opts);
  return 0;
}
