// Registry adapters for the Crank–Nicolson kernel family (paper Fig. 8).
// The grid is rebuilt from the request knobs (cn_num_prices, steps). For
// the PSOR variants the per-option cost proxy scales with the transformed
// time horizon sigma^2 T (more tau to march, and higher alpha means more
// PSOR iterations per step), giving the engine's weighted chunking a
// handle on mixed-expiry batches; the option-packed direct solve (beyond
// the paper) does the same work per option at any sigma^2 T.

#include <span>

#include "finbench/engine/task_group.hpp"
#include "finbench/kernels/cranknicolson.hpp"
#include "finbench/obs/metrics.hpp"
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
// W = 4 and 8.0 at W = 8, as do the tasked variant's blocks of 8.
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

template <Variant V, Width W>
void run_range(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
               std::size_t end, PricingResult& res) {
  kernels::cn::price_batch(view.specs.subspan(begin, end - begin), grid_of(req), V,
                           {res.values.data() + begin, end - begin}, W);
}

template <Variant V, Width W>
void run_batch(const PricingRequest& req, const core::PortfolioView& view,
               PricingResult& res) {
  const std::size_t n = view.specs.size();
  if (res.values.size() != n) res.values.assign(n, 0.0);
  res.items = n;
  kernels::cn::price_batch(view.specs, grid_of(req), V, res.values, W);
}

// --- Tasked wavefront: pipelined GSOR sweeps over the engine task pool -------
// Each convergence sweep of a block is one task; sweep k spins on sweep
// k-1's monotonic progress index (kernel contract: run_wave_sweep). The
// FIFO TaskGroup dispatches sweeps in spawn order, so a waiting sweep's
// predecessor is always executing or done — no deadlock at any pool size.
// With tasking off (or no free slots) the sweeps run serially in order;
// either way the arithmetic is bitwise-equal to
// price_reference_blocked(kWaveBlock).

constexpr int kWaveBlock = 8;

struct WaveCtx {
  ThreadPool* pool = nullptr;  // null: serial sweeps
};

void tasked_wave_runner(void* ctx_p, kernels::cn::WaveSweep* sweeps, int n) {
  auto* ctx = static_cast<WaveCtx*>(ctx_p);
  if (n <= 1 || ctx->pool == nullptr) {
    kernels::cn::serial_wave_runner(nullptr, sweeps, n);
    return;
  }
  TaskGroup group(*ctx->pool);
  // Pipelined tasks must really enqueue: an inline overflow spawn would
  // execute a later sweep before its predecessor and spin forever.
  if (!group.can_spawn(static_cast<std::size_t>(n) - 1)) {
    kernels::cn::serial_wave_runner(nullptr, sweeps, n);
    return;
  }
  for (int i = 1; i < n; ++i) {
    const kernels::cn::WaveSweep s = sweeps[i];
    group.spawn([s] { kernels::cn::run_wave_sweep(s); });
  }
  kernels::cn::run_wave_sweep(sweeps[0]);  // head of the pipeline
  group.join();
}

void run_range_tasked(const PricingRequest& req, const core::PortfolioView& view,
                      std::size_t begin, std::size_t end, PricingResult& res) {
  static obs::Counter& priced = obs::counter("cn.options_priced");
  priced.add(end - begin);
  Scratch& s = scratch_of(req);
  WaveCtx ctx{s.tasks_on ? s.task_pool : nullptr};
  const GridSpec grid = grid_of(req);
  for (std::size_t i = begin; i < end; ++i) {
    res.values[i] =
        kernels::cn::price_wavefront_tasked(view.specs[i], grid, kWaveBlock,
                                            tasked_wave_runner, &ctx)
            .price;
  }
}

void run_batch_tasked(const PricingRequest& req, const core::PortfolioView& view,
                      PricingResult& res) {
  const std::size_t n = view.specs.size();
  if (res.values.size() != n) res.values.assign(n, 0.0);
  res.items = n;
  run_range_tasked(req, view, 0, n, res);
}

// --- Option-packed direct solve ----------------------------------------------
// A chunk's packs of W options run on the participant's own thread
// (kernels::cn::price_direct_packed), in one workspace leased from the
// request's pack_pool; the prepare hook sizes the pool, so steady state
// allocates nothing. A lane's price depends on its own option alone, so
// any chunking, participant count or schedule gives the same bits.

void reserve_packs(const PricingRequest& req, const core::PortfolioView&) {
  Scratch& s = scratch_of(req);
  s.pack_pool.reserve(s.kernel_arena, kernels::cn::direct_packed_doubles(grid_of(req)),
                      scratch_slots());
}

void run_range_packed(const PricingRequest& req, const core::PortfolioView& view,
                      std::size_t begin, std::size_t end, PricingResult& res) {
  static obs::Counter& priced = obs::counter("cn.options_priced");
  priced.add(end - begin);
  kernels::cn::price_direct_packed(view.specs.subspan(begin, end - begin), grid_of(req),
                                   {res.values.data() + begin, end - begin}, Width::kAuto,
                                   &scratch_of(req).pack_pool);
}

void run_batch_packed(const PricingRequest& req, const core::PortfolioView& view,
                      PricingResult& res) {
  reserve_packs(req, view);
  const std::size_t n = view.specs.size();
  if (res.values.size() != n) res.values.assign(n, 0.0);
  res.items = n;
  kernels::cn::price_batch(view.specs, grid_of(req), Variant::kDirectPacked, res.values,
                           Width::kAuto, &scratch_of(req).pack_pool);
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
  v.flops_per_item = width == 1 ? flops<1> : width == 4 ? flops<4> : flops<0>;
  v.bytes_per_item = bytes;
  v.item_cost = item_cost;
  return v;
}

template <Variant V, Width W>
void wire(VariantInfo& v) {
  v.run_batch = run_batch<V, W>;
  v.run_range = run_range<V, W>;
}

}  // namespace

void register_cranknicolson(Registry& r) {
  {
    VariantInfo v = base("cn.reference.scalar", OptLevel::kReference, 1,
                         "scalar GSOR, convergence checked every iteration (Lis. 6/7)");
    v.reference_id = "";
    wire<Variant::kReference, Width::kScalar>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront.avx2", OptLevel::kIntermediate, 4,
                         "SIMD lanes along the t = 2k + j wavefront, stride-2 gathers");
    wire<Variant::kWavefront, Width::kAvx2>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront.auto", OptLevel::kIntermediate, 0,
                         "widest wavefront SIMD, stride-2 gathers");
    wire<Variant::kWavefront, Width::kAuto>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront_split.avx2", OptLevel::kAdvanced, 4,
                         "parity-split storage: unit-stride wavefront accesses, 4-wide");
    // Fallback chain: split(_paired) -> wavefront -> reference.
    v.fallback_id = "cn.wavefront.avx2";
    wire<Variant::kWavefrontSplit, Width::kAvx2>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront_split.auto", OptLevel::kAdvanced, 0,
                         "parity-split storage: unit-stride wavefront accesses, widest");
    v.fallback_id = "cn.wavefront.auto";
    wire<Variant::kWavefrontSplit, Width::kAuto>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront_split_paired.avx2", OptLevel::kAdvanced, 4,
                         "parity split + two solves interleaved for ILP, 4-wide");
    v.fallback_id = "cn.wavefront_split.avx2";  // -> wavefront -> reference
    wire<Variant::kWavefrontSplitPaired, Width::kAvx2>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront_split_paired.auto", OptLevel::kAdvanced, 0,
                         "parity split + two solves interleaved for ILP, widest");
    v.fallback_id = "cn.wavefront_split.auto";  // -> wavefront -> reference
    wire<Variant::kWavefrontSplitPaired, Width::kAuto>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.wavefront_tasked.scalar", OptLevel::kAdvanced, 1,
                         "whole GSOR sweeps pipelined as fork-join tasks (block of 8)");
    v.flops_per_item = flops<kWaveBlock>;
    v.fallback_id = "cn.wavefront_split.auto";  // -> wavefront -> reference
    v.run_batch = run_batch_tasked;
    v.run_range = run_range_tasked;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("cn.direct_packed.auto", OptLevel::kAdvanced, 0,
                         "options in the SIMD lanes, one direct Brennan-Schwartz solve per "
                         "step (beyond paper)");
    v.fallback_id = "cn.wavefront_split_paired.auto";  // -> split -> wavefront -> reference
    v.flops_per_item = flops_direct;
    v.item_cost = nullptr;  // uniform: a direct step costs the same at any sigma^2 T
    v.prepare = reserve_packs;
    v.run_batch = run_batch_packed;
    v.run_range = run_range_packed;
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
