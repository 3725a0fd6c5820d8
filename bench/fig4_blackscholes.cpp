// Reproduces Fig. 4: Black–Scholes throughput (millions of options/second)
// at each optimization level, with the bandwidth-bound roofline.
//
// Paper anchors (Sec. IV-A3):
//   - bandwidth bound is B/40 options/s (B = STREAM GB/s): 1.9 G on SNB-EP,
//     3.75 G on KNC; SNB-EP achieves 84% of its bound, KNC 60%.
//   - the KNC reference (AOS) is ~3x slower than the SNB-EP reference;
//     AOS->SOA is worth ~10x on KNC.

#include <vector>

#include "bench_common.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/blackscholes.hpp"

using namespace finbench;
using namespace finbench::kernels;

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const std::size_t nopt = opts.full ? (1u << 23) : (1u << 20);

  bench::Projector proj;
  harness::Report report("Fig. 4: Black-Scholes European pricing", "options/s");
  report.add_note("nopt = " + std::to_string(nopt) +
                  "; 200 flops, 40 bytes DRAM traffic per option");

  core::Portfolio aos = core::Portfolio::bs(nopt, core::Layout::kBsAos, 1);
  core::Portfolio soa = core::Portfolio::bs(nopt, core::Layout::kBsSoa, 1);
  const double flops = bs::kFlopsPerOption, bytes = bs::kBytesPerOption;

  // Registry-dispatched: one request per layout, variant selected by id.
  // The 4-wide (SNB-EP) rows call the SOA kernels' 4-wide path over the
  // engine pool in the same 64-option ranges; the VML row leases its
  // temporaries from a pool carved before timing, as the variant's
  // prepare hook does.
  engine::PricingRequest req_aos, req_soa;
  req_aos.portfolio = aos.view();
  req_soa.portfolio = soa.view();
  bench::PoolScratch vml_scratch(4 * bs::kVmlChunk);
  const auto soa4 = [&](const char* label, bool vml) {
    return bench::items_per_sec(label, nopt, opts.reps, [&] {
      bench::on_pool(nopt, 64, [&](std::size_t b, std::size_t e) {
        const core::BsSoaView v = core::subview(req_soa.portfolio, b, e - b).soa;
        if (vml) {
          bs::price_advanced_vml(v, bs::Width::kAvx2, &vml_scratch.pool);
        } else {
          bs::price_intermediate(v, bs::Width::kAvx2);
        }
      });
    });
  };

  req_aos.kernel_id = "bs.reference.scalar";
  const double ref = bench::measure_variant("bs.ref", req_aos, nopt, opts.reps);
  req_aos.kernel_id = "bs.basic.auto";
  const double basic = bench::measure_variant("bs.basic", req_aos, nopt, opts.reps);
  const double inter4 = soa4("bs.inter4", false);
  req_soa.kernel_id = "bs.intermediate.auto";
  const double inter8 = bench::measure_variant("bs.inter8", req_soa, nopt, opts.reps);
  const double vml4 = soa4("bs.vml4", true);
  req_soa.kernel_id = "bs.advanced_vml.auto";
  const double vml8 = bench::measure_variant("bs.vml8", req_soa, nopt, opts.reps);

  // The honest SOA row (paper Sec. III "advanced"): what the SOA SIMD
  // kernel delivers when the caller's data actually lives in AOS — every
  // repetition pays the AOS->SOA conversion, the kernel, and the
  // SOA->AOS output writeback. The arena is reset (not freed) each rep,
  // so the loop is heap-allocation-free after the first conversion.
  core::Arena conv_arena;
  core::ConvertStats conv_stats;
  const engine::VariantInfo& inter = *engine::Registry::instance().find("bs.intermediate.auto");
  engine::PricingRequest req_conv;
  engine::PricingResult res_conv;
  const double soa_conv = bench::items_per_sec("bs.soa_conv", nopt, opts.reps, [&] {
    conv_arena.reset();
    core::ConvertStats cs;
    core::PortfolioView v = core::convert(aos.view(), core::Layout::kBsSoa, conv_arena, &cs);
    conv_stats = cs;
    req_conv.portfolio = v;
    inter.run_batch(req_conv, v, res_conv);
    core::copy_outputs(v, aos.view());
  });
  report.add_note("AOS->SOA conversion: " + harness::eng(conv_stats.seconds) + " s, " +
                  std::to_string(conv_stats.bytes) + " bytes carved per rep");

  report.add_row(proj.make_row("Reference (scalar, AOS)", ref, flops, bytes, 1, 1));
  report.add_row(proj.make_row("Basic (pragma simd/omp, AOS)", basic, flops, bytes, 4, 8));
  report.add_row(proj.make_row("Intermediate (SOA + SIMD/erf) 4w", inter4, flops, bytes, 4, 4));
  report.add_row(proj.make_row("Intermediate (SOA + SIMD/erf) 8w", inter8, flops, bytes, 8, 8,
                               std::nullopt, 2.25e9));
  report.add_row(proj.make_row("Advanced (VML-style arrays) 4w", vml4, flops, bytes, 4, 4,
                               1.6e9, std::nullopt));
  report.add_row(proj.make_row("Advanced (VML-style arrays) 8w", vml8, flops, bytes, 8, 8));
  // Conversion + kernel + writeback touch ~3x the kernel's DRAM traffic.
  report.add_row(proj.make_row("SOA SIMD incl. AOS<->SOA conversion", soa_conv, flops,
                               3 * bytes, 8, 8));

  // Register-tiled blocked rows (the full data-path recipe): the native-
  // layout rows time the kernel alone off an AoSoA portfolio; the "incl.
  // conversion" row starts and ends in the caller's AOS array per rep —
  // the same accounting as the SOA row above, so the two are directly
  // comparable.
  core::Portfolio blocked_pf = core::Portfolio::bs(nopt, core::Layout::kBsBlocked, 1);
  engine::PricingRequest req_blk;
  req_blk.portfolio = blocked_pf.view();
  req_blk.kernel_id = "bs.blocked.auto";
  const double blk8 = bench::measure_variant("bs.blocked8", req_blk, nopt, opts.reps);
  req_blk.kernel_id = "bs.blocked_sp.auto";
  const double blk16f = bench::measure_variant("bs.blocked16f", req_blk, nopt, opts.reps);

  // The conversion here is fused block-locally into the kernel: each
  // lane-block is transposed into a stack tile, priced in register, and
  // written straight back to AOS — the composability the AoSoA layout
  // exists for (a materialized blocked array would cost two extra DRAM
  // passes; core::convert still provides that form for the engine path).
  // No registry variant is the DP fused kernel, so the row spreads it
  // over the engine pool in 64-option ranges.
  const double blk_conv = bench::items_per_sec("bs.blocked_conv", nopt, opts.reps, [&] {
    bench::on_pool(nopt, 64, [&](std::size_t b, std::size_t e) {
      bs::price_blocked_from_aos(core::subview(aos.view(), b, e - b).aos,
                                 bs::Width::kAuto);
    });
  });
  // The SP twin of the fused row: same AOS-in / AOS-out accounting, but
  // the register tile narrows to f32 (16 lanes on AVX-512) before the
  // transcendentals — via the registered bs.blocked_fused_sp.auto.
  req_aos.kernel_id = "bs.blocked_fused_sp.auto";
  const double blk_conv_sp =
      bench::measure_variant("bs.blocked_conv_sp", req_aos, nopt, opts.reps);

  report.add_row(proj.make_row("Blocked SIMD (AoSoA reg tiles) 8w", blk8, flops, bytes, 8, 8));
  report.add_row(proj.make_row("Blocked SP (16w in-register)", blk16f, flops, bytes, 8, 8));
  // Fused block-local conversion: the AOS array is read once and its two
  // output fields written once — ~1.4x the kernel's DRAM traffic, not 3x.
  report.add_row(proj.make_row("Blocked SIMD incl. AOS->blocked conversion", blk_conv, flops,
                               bytes + 2 * sizeof(double), 8, 8));
  report.add_row(proj.make_row("Blocked SP incl. conversion (16w in-register)", blk_conv_sp,
                               flops, bytes + 2 * sizeof(double), 8, 8));

  // Single-precision extension: double the lanes (Table I's SP peak rows).
  // Portfolio::bs writes the same seed-1 draw the other rows price, rounded
  // to float.
  core::Portfolio sp_pf = core::Portfolio::bs(nopt, core::Layout::kBsSoaF, 1);
  engine::PricingRequest req_sp;
  req_sp.portfolio = sp_pf.view();
  req_sp.kernel_id = "bs.intermediate_sp.auto";
  const double sp16 = bench::measure_variant("bs.sp16", req_sp, nopt, opts.reps);
  {
    harness::Row row;
    row.label = "SP intermediate (16w, half the bytes)";
    row.host_items_per_sec = sp16;
    // SP halves bytes/option and doubles peak flops: separate roofline.
    arch::MachineModel snb_sp = proj.snb;
    snb_sp.dp_gflops = snb_sp.sp_gflops;
    arch::MachineModel knc_sp = proj.knc;
    knc_sp.dp_gflops = knc_sp.sp_gflops;
    arch::MachineModel host_sp = proj.host;
    host_sp.dp_gflops = 2 * host_sp.dp_gflops;
    const double host_bound = arch::roofline(host_sp, flops, bytes / 2).items_per_sec();
    const double eff = sp16 / host_bound;
    row.snb_projected = eff * arch::roofline(snb_sp, flops, bytes / 2).items_per_sec();
    row.knc_projected = eff * arch::roofline(knc_sp, flops, bytes / 2).items_per_sec();
    report.add_row(row);
  }

  // Bandwidth-bound rooflines (the paper's top reference bars).
  harness::Row bound;
  bound.label = "Bandwidth bound (B/40)";
  bound.host_items_per_sec = arch::stream_bandwidth_gbs() * 1e9 / 40.0;
  bound.snb_projected = 1.9e9;
  bound.knc_projected = 3.75e9;
  report.add_row(bound);

  // Shape checks from the paper's narrative.
  report.add_check("SOA SIMD beats pragma-on-AOS (the AOS gather tax)", inter4 > basic);
  report.add_check("every optimized level beats the scalar reference",
                   basic > ref * 0.8 && inter4 > ref && vml4 > ref);
  report.add_check("8-wide SOA at least matches 4-wide (KNC-class path scales)",
                   inter8 > 0.9 * inter4);
  report.add_check(
      "fused SVML-style beats VML-style arrays (paper: SVML wins on KNC)",
      inter8 > 0.9 * vml8,
      "fused = " + harness::eng(inter8) + " vs arrays = " + harness::eng(vml8));
  report.add_check("single precision beats double (2x lanes, half the bytes)", sp16 > inter8,
                   harness::eng(sp16) + " vs " + harness::eng(inter8));
  report.add_check(
      "SOA SIMD still wins over scalar AOS even paying conversion both ways",
      soa_conv > ref,
      "incl. conversion = " + harness::eng(soa_conv) + " vs ref = " + harness::eng(ref));
  report.add_check("blocked register tiles at least match plain SOA SIMD",
                   blk8 > 0.9 * inter8,
                   "blocked = " + harness::eng(blk8) + " vs soa = " + harness::eng(inter8));
  report.add_check(
      "blocked incl. conversion at least matches SOA incl. conversion",
      blk_conv >= soa_conv,
      "blocked = " + harness::eng(blk_conv) + " vs soa = " + harness::eng(soa_conv));
  report.add_check(
      "SP fused incl. conversion at least matches the DP fused row",
      blk_conv_sp > 0.9 * blk_conv,
      "sp = " + harness::eng(blk_conv_sp) + " vs dp = " + harness::eng(blk_conv));
  report.add_check("projected KNC/SNB advanced ratio ~2x (bandwidth ratio)",
                   harness::ratio_within(
                       proj.project(proj.knc, inter8, flops, bytes, 8) /
                           proj.project(proj.snb, inter4, flops, bytes, 4),
                       2.0, 0.5, 2.0));

  bench::finish(report, opts);
  return 0;
}
