// Registry adapters for the Black–Scholes kernel family (paper Fig. 4).
//
// These variants write prices into the Black–Scholes view's own arrays
// (PricingResult::values stays empty: the kernel is bandwidth-bound, and
// copying millions of outputs would distort exactly what Fig. 4
// measures). run_range prices one range of the view on a pool
// participant — a cache-sized engine chunk, or one of run_batch's ranges
// (the Fig. 4 experiment). A request in the "wrong" BS layout is not an error:
// the engine negotiates each chunk into the layout these adapters receive.

#include "finbench/kernels/blackscholes.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

using core::OptLevel;
using kernels::bs::Width;
using kernels::bs::WidthF;

double flops(const PricingRequest&) { return kernels::bs::kFlopsPerOption; }
double bytes(const PricingRequest&) { return kernels::bs::kBytesPerOption; }
double bytes_sp(const PricingRequest&) { return kernels::bs::kBytesPerOption / 2; }

// One pricing function per variant over a whole BS view; the registry
// entry points below wrap it for the two ways it is driven.
using PriceFn = void (*)(const PricingRequest&, const core::PortfolioView&);

void price_reference(const PricingRequest&, const core::PortfolioView& view) {
  kernels::bs::price_reference(view.aos);
}

void price_intermediate(const PricingRequest&, const core::PortfolioView& view) {
  kernels::bs::price_intermediate(view.soa);
}

// The temporaries (d1/d2/xexp/qlog) lease from the request's vml pool,
// which this prepare hook sizes before any range runs; reserve() is an
// idempotent no-op after the first pricing, so steady-state repetitions
// never allocate.
void prepare_vml(const PricingRequest& req, const core::PortfolioView&, PricingResult&) {
  Scratch& s = scratch_of(req);
  s.vml_pool.reserve(s.kernel_arena, 4 * kernels::bs::kVmlChunk, scratch_slots(s));
}

void price_advanced_vml(const PricingRequest& req, const core::PortfolioView& view) {
  kernels::bs::price_advanced_vml(view.soa, Width::kAuto, &scratch_of(req).vml_pool);
}

void price_intermediate_sp(const PricingRequest&, const core::PortfolioView& view) {
  kernels::bs::price_intermediate_sp(view.sp, WidthF::kAuto);
}

void price_blocked(const PricingRequest&, const core::PortfolioView& view) {
  kernels::bs::price_blocked(view.blocked, Width::kAuto);
}

void price_blocked_sp(const PricingRequest&, const core::PortfolioView& view) {
  kernels::bs::price_blocked_sp(view.blocked, WidthF::kAuto);
}

void price_fused_sp(const PricingRequest&, const core::PortfolioView& view) {
  kernels::bs::price_blocked_from_aos_f32(view.aos, WidthF::kAuto);
}

// One range of the view, priced in place. Every chunking keeps interior
// boundaries aligned to every lane tile and block width, so ranged
// results equal one call over the whole view bit for bit.
template <PriceFn F>
void run_range(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
               std::size_t end, PricingResult&) {
  F(req, core::subview(view, begin, end - begin));
}

template <PriceFn F>
void set_kernel(VariantInfo& v) {
  v.run_range = run_range<F>;
}

VariantInfo base(const char* id, OptLevel level, int width, Layout layout, const char* desc) {
  VariantInfo v;
  v.id = id;
  v.kernel = "bs";
  v.level = level;
  v.width = width;
  v.layout = layout;
  v.exhibit = "Fig. 4";
  v.description = desc;
  v.reference_id = "bs.reference.scalar";
  v.flops_per_item = flops;
  v.bytes_per_item = bytes;
  v.european_only = true;  // closed form: European by construction
  return v;
}

}  // namespace

void register_blackscholes(Registry& r) {
  {
    VariantInfo v = base("bs.reference.scalar", OptLevel::kReference, 1, Layout::kBsAos,
                         "scalar AOS loop, cnd via libm erfc (Lis. 1)");
    v.reference_id = "";
    set_kernel<price_reference>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.intermediate.auto", OptLevel::kIntermediate, 0, Layout::kBsSoa,
                         "SOA + widest SIMD across options, erf substitution, put via parity");
    v.tolerance = 1e-9;
    set_kernel<price_intermediate>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.advanced_vml.auto", OptLevel::kAdvanced, 0, Layout::kBsSoa,
                         "SOA + VML-style whole-array transcendental passes, widest");
    v.tolerance = 1e-8;
    // Graceful degradation: a failed VML batch re-prices through the
    // plain intermediate SOA kernel; the scalar closed form is the
    // engine's terminal repair for any BS layout (docs/robustness.md).
    v.fallback_id = "bs.intermediate.auto";
    set_kernel<price_advanced_vml>(v);
    v.prepare = prepare_vml;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.intermediate_sp.auto", OptLevel::kIntermediate, 0, Layout::kBsSoaF,
                         "single-precision SOA SIMD (twice the lanes, half the bytes)");
    v.tolerance = 1e-3;  // SP arithmetic vs the DP reference
    v.bytes_per_item = bytes_sp;
    set_kernel<price_intermediate_sp>(v);
    r.add(std::move(v));
  }
  // --- Register-tiled blocked (AoSoA) family ------------------------------
  // One lane-block sub-run per register tile straight off the blocked
  // layout: no gathers, streaming stores, x2 unroll, at the widest width
  // compiled into this build. The SP entry falls back to the DP kernel on
  // the same layout (fallbacks must share the layout), which does not
  // share its f32 failure mode; the DP entry ends at the engine's
  // terminal closed-form repair.
  {
    VariantInfo v = base("bs.blocked.auto", OptLevel::kAdvanced, 0, Layout::kBsBlocked,
                         "AoSoA register tiles, widest DP, streaming stores");
    v.tolerance = 1e-9;
    set_kernel<price_blocked>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("bs.blocked_sp.auto", OptLevel::kAdvanced, 0, Layout::kBsBlocked,
                         "AoSoA register tiles, widest SP compute in register");
    v.tolerance = 1e-3;  // SP arithmetic vs the DP reference
    v.bytes_per_item = bytes;  // storage stays f64: full 40 B/option move
    v.fallback_id = "bs.blocked.auto";
    set_kernel<price_blocked_sp>(v);
    r.add(std::move(v));
  }
  // --- Fused AOS -> f32 register tile (incl. conversion) -------------------
  // The SP analog of the fused DP pipeline: the request stays in its
  // native AOS layout (no negotiation, no blocked array in DRAM) and the
  // f64 -> f32 narrowing rides the register tile. Its fallback is the
  // reference link (bs.reference.scalar, also AOS).
  {
    VariantInfo v = base("bs.blocked_fused_sp.auto", OptLevel::kAdvanced, 0, Layout::kBsAos,
                         "fused AOS -> f32 register tile incl. conversion, widest SP");
    v.tolerance = 1e-3;  // SP arithmetic vs the DP reference
    v.bytes_per_item = bytes;  // storage stays f64 AOS: full 40 B/option move
    set_kernel<price_fused_sp>(v);
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
