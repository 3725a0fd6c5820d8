// Registry adapters for the Crank–Nicolson kernel family (paper Fig. 8).
// The grid is rebuilt from the request knobs (cn_num_prices, steps). For
// the PSOR variants the per-option cost proxy scales with the transformed
// time horizon sigma^2 T (more tau to march, and higher alpha means more
// PSOR iterations per step), giving the engine's weighted chunking a
// handle on mixed-expiry batches; the option-packed direct solve (beyond
// the paper) does the same work per option at any sigma^2 T.

#include <span>

#include "finbench/kernels/cranknicolson.hpp"
#include "finbench/vecmath/array_math.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

using core::OptLevel;
using kernels::cn::GridSpec;
using kernels::cn::Variant;
using kernels::cn::Width;

GridSpec grid_of(const PricingRequest& req) {
  GridSpec g;
  g.num_prices = req.cn_num_prices;
  g.num_steps = req.steps;
  return g;
}

// PSOR iterations per time step, measured on perfbench's exotic_book
// generator (seed 1, 1024 puts, 129 prices x 128 steps, AVX-512 host):
// the reference, which checks convergence after every sweep, runs 4.3;
// the wavefront variants check once per block of W sweeps and run 5.8 at
// W = 4 and 8.0 at W = 8.
// Lanes is the variant's SIMD width (0: the widest compiled in).
template <int Lanes>
double flops(const PricingRequest& req) {
  const int w = Lanes == 0 ? vecmath::max_width() : Lanes;
  const double iters = w == 1 ? 4.3 : w == 4 ? 5.8 : 8.0;
  return kernels::cn::flops_per_option_estimate(grid_of(req), iters);
}
double flops_direct(const PricingRequest& req) {
  return kernels::cn::flops_per_option_direct(grid_of(req));
}
double bytes(const PricingRequest&) { return 0.0; }  // grid resides in cache

double item_cost(const core::OptionSpec& o, const PricingRequest&) {
  return 1.0 + o.vol * o.vol * o.years;
}

// Every variant at the widest width compiled in. Only the direct solve
// reads the scratch pool (the PSOR variants need no workspace).
template <Variant V>
void run_range(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
               std::size_t end, PricingResult& res) {
  kernels::cn::price_batch(view.specs.subspan(begin, end - begin), grid_of(req), V,
                           {res.values.data() + begin, end - begin}, Width::kAuto,
                           &scratch_of(req).pack_pool);
}

// --- Option-packed direct solve ----------------------------------------------
// A range's packs of W options run on the participant's own thread
// (kernels::cn::price_direct_packed), in one workspace leased from the
// request's pack_pool; the prepare hook sizes the pool, so steady state
// allocates nothing. A lane's price depends on its own option alone, so
// any chunking, participant count or schedule gives the same bits.

void reserve_packs(const PricingRequest& req, const core::PortfolioView&, PricingResult&) {
  Scratch& s = scratch_of(req);
  s.pack_pool.reserve(s.kernel_arena, kernels::cn::direct_packed_doubles(grid_of(req)),
                      scratch_slots(s));
}

VariantInfo base(const char* id, OptLevel level, int width, const char* desc) {
  VariantInfo v;
  v.id = id;
  v.kernel = "cn";
  v.level = level;
  v.width = width;
  v.layout = Layout::kSpecs;
  v.exhibit = "Fig. 8";
  v.description = desc;
  v.reference_id = "cn.reference.scalar";
  // The wavefront variants agree with the *blocked* reference to 1e-9
  // (tests/test_cranknicolson.cpp); against the plain per-iteration-checked
  // GSOR reference the gap is the solver convergence tolerance (~3e-5).
  v.tolerance = 1e-4;
  v.flops_per_item = width == 1 ? flops<1> : flops<0>;
  v.bytes_per_item = bytes;
  v.item_cost = item_cost;
  v.range_align = 1;  // options are independent (the paired variants: 2)
  return v;
}

template <Variant V>
void wire(VariantInfo& v) {
  v.run_range = run_range<V>;
  if (V == Variant::kWavefrontSplitPaired) v.range_align = 2;
}

}  // namespace

void register_cranknicolson(Registry& r) {
  {
    VariantInfo v = base("cn.reference.scalar", OptLevel::kReference, 1,
                         "scalar GSOR, convergence checked every iteration (Lis. 6/7)");
    v.reference_id = "";
    wire<Variant::kReference>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront.auto", OptLevel::kIntermediate, 0,
                         "widest wavefront SIMD, stride-2 gathers");
    wire<Variant::kWavefront>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront_split.auto", OptLevel::kAdvanced, 0,
                         "parity-split storage: unit-stride wavefront accesses, widest");
    // Fallback chain: split(_paired) -> wavefront -> reference.
    v.fallback_id = "cn.wavefront.auto";
    wire<Variant::kWavefrontSplit>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront_split_paired.auto", OptLevel::kAdvanced, 0,
                         "parity split + two solves interleaved for ILP, widest");
    v.fallback_id = "cn.wavefront_split.auto";  // -> wavefront -> reference
    wire<Variant::kWavefrontSplitPaired>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.direct_packed.auto", OptLevel::kAdvanced, 0,
                         "options in the SIMD lanes, one direct Brennan-Schwartz solve per "
                         "step (beyond paper)");
    v.fallback_id = "cn.wavefront_split_paired.auto";  // -> split -> wavefront -> reference
    v.flops_per_item = flops_direct;
    v.item_cost = nullptr;  // uniform: a direct step costs the same at any sigma^2 T
    v.range_align = 8;      // whole packs: a narrower range leaves lanes idle
    v.prepare = reserve_packs;
    v.run_range = run_range<Variant::kDirectPacked>;
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
