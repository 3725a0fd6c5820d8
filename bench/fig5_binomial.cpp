// Reproduces Fig. 5: binomial-tree European option pricing (thousands of
// options/second) at 1024 and 2048 time steps, per optimization level,
// with the compute-bound roofline.
//
// Paper anchors (Sec. IV-B3): basic KNC/SNB = 1.4x; register tiling > 2x
// over SIMD-across-options; unrolling ~1.4x on KNC, ~none on SNB-EP;
// SNB-EP within 10% and KNC within 30% of the compute bound; overall
// KNC/SNB = 2.6x at both step counts.

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"

using namespace finbench;
using namespace finbench::kernels;

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const std::size_t nopt = opts.full ? 256 : 64;

  bench::Projector proj;
  const auto workload = core::make_option_workload(nopt, 2);

  for (int steps : {1024, 2048}) {
    harness::Report report(
        "Fig. 5: Binomial tree European pricing, N = " + std::to_string(steps), "options/s");
    report.add_note("nopt = " + std::to_string(nopt) + "; 3N(N+1)/2 flops per option");
    const double flops = binomial::flops_per_option(steps);

    // Registry-dispatched: same request, variant swapped by id per row.
    engine::PricingRequest req;
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
    req.steps = steps;
    auto measure = [&](const char* label, const char* id) {
      req.kernel_id = id;
      return bench::measure_variant(label, req, nopt, opts.reps);
    };
    // The rows no registry variant covers — the 4-wide (SNB-EP) rows and
    // the unrolled tiles — run the kernel at width w over the engine pool
    // in the registry's 8-option ranges, leasing lattices from a pool
    // carved before timing.
    bench::PoolScratch lattices(binomial::lattice_doubles(steps));
    std::vector<double> out(nopt);
    auto direct = [&](const char* label, auto kernel, binomial::Width w) {
      return bench::items_per_sec(label, nopt, opts.reps, [&] {
        bench::on_pool(nopt, 8, [&](std::size_t b, std::size_t e) {
          kernel(std::span(workload).subspan(b, e - b), steps, std::span(out).subspan(b, e - b),
                 w, &lattices.pool);
        });
      });
    };

    const double ref = measure("binomial.ref", "binomial.reference.scalar");
    const double basic = measure("binomial.basic", "binomial.basic.auto");
    const double inter4 =
        direct("binomial.inter4", binomial::price_intermediate, binomial::Width::kAvx2);
    const double inter8 = measure("binomial.inter8", "binomial.intermediate.auto");
    const double adv4 =
        direct("binomial.adv4", binomial::price_advanced, binomial::Width::kAvx2);
    const double adv8 = measure("binomial.adv8", "binomial.advanced.auto");
    const double unroll8 =
        direct("binomial.unroll8", binomial::price_advanced_unrolled, binomial::Width::kAuto);

    report.add_row(proj.make_row("Reference (scalar)", ref, flops, 0, 1, 1));
    report.add_row(proj.make_row("Basic (inner-loop autovec + omp)", basic, flops, 0, 4, 8));
    report.add_row(proj.make_row("Intermediate (SIMD across options) 4w", inter4, flops, 0, 4, 4));
    report.add_row(proj.make_row("Intermediate (SIMD across options) 8w", inter8, flops, 0, 8, 8));
    report.add_row(proj.make_row("Advanced (register tiling) 4w", adv4, flops, 0, 4, 4));
    report.add_row(proj.make_row("Advanced (register tiling) 8w", adv8, flops, 0, 8, 8));
    report.add_row(proj.make_row("Advanced (+unroll) 8w", unroll8, flops, 0, 8, 8));

    harness::Row bound;
    bound.label = "Compute bound (peak flops / 3N(N+1)/2)";
    bound.host_items_per_sec = proj.host.dp_gflops * 1e9 / flops;
    bound.snb_projected = arch::snb_ep().dp_gflops * 1e9 / flops;
    bound.knc_projected = arch::knc().dp_gflops * 1e9 / flops;
    report.add_row(bound);

    report.add_check("register tiling improves on SIMD-across-options (paper: >2x)",
                     adv8 > 1.4 * inter8 && adv4 > 1.1 * inter4,
                     "4w gain " + std::to_string(adv4 / inter4) + "x, 8w gain " +
                         std::to_string(adv8 / inter8) + "x");
    // Paper, Sec. IV-B3: "SIMD across options hardly improves performance
    // on either platform" — the per-lane working set grows by the vector
    // width; only tiling recovers it.
    report.add_check("SIMD-across-options alone changes little (paper: 'hardly improves')",
                     harness::ratio_within(inter4, basic, 0.5, 2.5));
    report.add_check("advanced 4w within 2.5x of the width-adjusted compute bound",
                     adv4 > proj.host_roofline(flops, 0, 4) / 2.5);
    report.add_check("projected KNC/SNB advanced ratio ~2.6x",
                     harness::ratio_within(proj.project(proj.knc, adv8, flops, 0, 8) /
                                               proj.project(proj.snb, adv4, flops, 0, 4),
                                           2.6, 0.5, 2.0));

    bench::finish(report, opts);
  }
  return 0;
}
