// Reproduces the paper's headline "Ninja gap" result (Sec. V): the ratio
// between compiler-assisted naive code (basic level) and fully optimized
// code, per kernel and as a geometric mean — paper: 1.9x on SNB-EP (4-wide
// class) and 4x on KNC (8-wide class).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/kernels/binomial.hpp"

using namespace finbench;

namespace {

struct Gap {
  std::string kernel;
  double gap4;  // best 4-wide / basic
  double gap8;  // best 8-wide / basic
};

// One kernel's basic, best 4-wide and best 8-wide rows, each timed through
// its registry variant's run_batch, so the engine pool threads every
// level alike. `basic` may carry a different layout than `best` (the AOS
// pragma loop against the SOA SIMD kernels).
Gap measure(const char* kernel, const char* tag_name, engine::PricingRequest basic,
            engine::PricingRequest best, std::size_t items, int reps, const char* best4,
            const char* best8) {
  const std::string tag = std::string("ninja.") + tag_name;
  const double base = bench::measure_variant((tag + ".basic").c_str(), basic, items, reps);
  best.kernel_id = best4;
  const double r4 = bench::measure_variant((tag + ".best4").c_str(), best, items, reps);
  best.kernel_id = best8;
  const double r8 = bench::measure_variant((tag + ".best8").c_str(), best, items, reps);
  return {kernel, r4 / base, r8 / base};
}

engine::PricingRequest request(const char* id, core::PortfolioView view) {
  engine::PricingRequest req;
  req.kernel_id = id;
  req.portfolio = view;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  std::vector<Gap> gaps;

  {  // Black–Scholes
    const std::size_t n = opts.full ? (1u << 22) : (1u << 19);
    core::Portfolio aos = core::Portfolio::bs(n, core::Layout::kBsAos, 1);
    core::Portfolio soa = core::Portfolio::bs(n, core::Layout::kBsSoa, 1);
    gaps.push_back(measure("black-scholes", "bs", request("bs.basic.auto", aos.view()),
                           request("", soa.view()), n, opts.reps,
                           "bs.intermediate.avx2", "bs.intermediate.auto"));
  }
  {  // Binomial tree. The unrolled tile loop is registered widest only, so
     // its 4-wide row runs the kernel over the engine pool directly.
    const std::size_t n = opts.full ? 128 : 32;
    const int steps = 1024;
    const auto w = core::make_option_workload(n, 2);
    engine::PricingRequest req = request("binomial.basic.auto", core::view_of(std::span(w)));
    req.steps = steps;
    const double basic = bench::measure_variant("ninja.binomial.basic", req, n, opts.reps);
    std::vector<double> out(n);
    const double best4 = bench::items_per_sec("ninja.binomial.best4", n, opts.reps, [&] {
      bench::on_pool(n, 4, [&](std::size_t b, std::size_t e) {
        kernels::binomial::price_advanced_unrolled(std::span(w).subspan(b, e - b), steps,
                                                   std::span(out).subspan(b, e - b),
                                                   kernels::binomial::Width::kAvx2);
      });
    });
    req.kernel_id = "binomial.advanced_unrolled.auto";
    const double best8 = bench::measure_variant("ninja.binomial.best8", req, n, opts.reps);
    gaps.push_back({"binomial-tree", best4 / basic, best8 / basic});
  }
  {  // Brownian bridge
    const std::size_t n = opts.full ? (1u << 18) : (1u << 15);
    engine::PricingRequest req = request("brownian.basic.scalar", core::paths_view(n));
    req.bridge_depth = 6;
    req.seed = 1;
    gaps.push_back(measure("brownian-bridge", "brownian", req, req, n, opts.reps,
                           "brownian.intermediate.avx2", "brownian.intermediate.auto"));
  }
  {  // Monte Carlo (the paper's point: basic pragmas ~close the gap)
    const std::size_t n = opts.full ? 16 : 8;
    const auto w = core::make_option_workload(n, 3);
    engine::PricingRequest req = request("mc.basic_stream.auto", core::view_of(std::span(w)));
    req.npath = opts.full ? (1u << 17) : (1u << 15);
    req.seed = 2;
    gaps.push_back(measure("monte-carlo", "mc", req, req, n, opts.reps,
                           "mc.optimized_stream.avx2", "mc.optimized_stream.auto"));
  }
  {  // Crank–Nicolson
    const std::size_t n = opts.full ? 8 : 4;
    core::SingleOptionWorkloadParams params;
    params.style = core::ExerciseStyle::kAmerican;
    const auto w = core::make_option_workload(n, 5, params);
    engine::PricingRequest req = request("cn.reference.scalar", core::view_of(std::span(w)));
    req.cn_num_prices = 257;
    req.steps = opts.full ? 500 : 150;
    gaps.push_back(measure("crank-nicolson", "cn", req, req, n, opts.reps,
                           "cn.wavefront_split.avx2", "cn.wavefront_split.auto"));
  }

  std::printf("\n===============================================================\n");
  std::printf("Ninja gap summary (advanced / basic throughput)\n");
  std::printf("===============================================================\n");
  std::printf("  %-18s %14s %14s\n", "kernel", "4-wide (SNB)", "8-wide (KNC)");
  double log4 = 0, log8 = 0;
  for (const auto& g : gaps) {
    std::printf("  %-18s %13.2fx %13.2fx\n", g.kernel.c_str(), g.gap4, g.gap8);
    log4 += std::log(g.gap4);
    log8 += std::log(g.gap8);
  }
  const double geo4 = std::exp(log4 / gaps.size());
  const double geo8 = std::exp(log8 / gaps.size());
  std::printf("  %-18s %13.2fx %13.2fx\n", "geometric mean", geo4, geo8);
  std::printf("  paper (Sec. V)    %13s %13s\n", "1.90x", "4.00x");
  const bool widens = geo8 > geo4 * 0.9;
  const bool in_ballpark = harness::ratio_within(geo4, 1.9, 0.4, 2.5);
  std::printf("  [%s] gap widens with SIMD width (in-order/wide cores need ninjas)\n",
              widens ? "PASS" : "FAIL");
  std::printf("  [%s] 4-wide geometric-mean gap within 2.5x of paper's 1.9x\n",
              in_ballpark ? "PASS" : "FAIL");

  // Telemetry exports (--csv/--json/--trace) go through a Report; the
  // bespoke table above stays the stdout rendering. "host" carries the
  // 4-wide gap, "KNC projected" the 8-wide gap; paper values on the
  // geomean row.
  harness::Report report("Ninja gap summary (advanced / basic throughput)", "gap (x)");
  report.add_note("host column = 4-wide gap, KNC column = 8-wide gap");
  for (const auto& g : gaps) {
    harness::Row r;
    r.label = g.kernel;
    r.host_items_per_sec = g.gap4;
    r.knc_projected = g.gap8;
    report.add_row(r);
  }
  harness::Row geo;
  geo.label = "geometric mean";
  geo.host_items_per_sec = geo4;
  geo.knc_projected = geo8;
  geo.paper_snb = 1.9;
  geo.paper_knc = 4.0;
  report.add_row(geo);
  report.add_check("gap widens with SIMD width", widens);
  report.add_check("4-wide geometric-mean gap within 2.5x of paper's 1.9x", in_ballpark);
  bench::finish_quiet(report, opts);
  return 0;
}
