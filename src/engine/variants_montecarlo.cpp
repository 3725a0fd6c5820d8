// Registry adapters for the Monte Carlo kernel family (paper Table II).
//
// Stream-flavor variants share one pre-generated normal array across every
// option (built once into the request's Scratch, so repeated pricings of
// the same request time only the integration, as Table II does). Computed-
// flavor variants draw a fresh Philox substream per option; run_range
// passes stream_base = begin so any chunking consumes exactly the
// substreams of the whole batch.
//
// Each range writes per-option results into its slice of the
// Scratch-resident result buffer, pre-sized by the prepare hook — a range
// never allocates, which the engine's zero-steady-state-allocation
// guarantee depends on. Options are independent, so ranges may start at
// any option (range_align 1).

#include <algorithm>
#include <span>
#include <vector>

#include "finbench/engine/task_group.hpp"
#include "finbench/kernels/montecarlo.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/rng/normal.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

using core::OptLevel;
using kernels::mc::McResult;
using kernels::mc::Width;

double flops(const PricingRequest& req) {
  return kernels::mc::kFlopsPerPath * static_cast<double>(req.npath);
}
double bytes_stream(const PricingRequest& req) {
  return 8.0 * static_cast<double>(req.npath);  // the normal array re-read per option
}
double bytes_computed(const PricingRequest&) { return 0.0; }

// Paths per option are constant across the batch, so cost is uniform and
// item_cost stays null (equal-count chunks are already balanced).

const arch::AlignedVector<double>& stream_normals(const PricingRequest& req) {
  Scratch& s = scratch_of(req);
  if (s.z.size() < req.npath) {
    s.z.resize(req.npath);
    rng::NormalStream stream(req.seed);
    stream.fill({s.z.data(), s.z.size()});
  }
  return s.z;
}

// Size the chunk result buffer once, before any chunk runs (chunks write
// disjoint slices concurrently, so they must never resize it themselves).
std::vector<McResult>& result_buffer(const PricingRequest& req, std::size_t n) {
  std::vector<McResult>& mc = scratch_of(req).mc;
  if (mc.size() < n) mc.resize(n);
  return mc;
}

// Every variant reports a standard error per option.
void size_std_errors(const core::PortfolioView& view, PricingResult& res) {
  res.std_errors.assign(view.specs.size(), 0.0);
}

void prepare_stream(const PricingRequest& req, const core::PortfolioView& view,
                    PricingResult& res) {
  stream_normals(req);
  result_buffer(req, view.specs.size());
  size_std_errors(view, res);
}

// Computed-flavor kernels lease their per-participant normal chunks from
// the request's rng pool, carved here; reserve() is idempotent, so
// steady-state repetitions stay allocation-free.
void prepare_computed(const PricingRequest& req, const core::PortfolioView& view,
                      PricingResult& res) {
  Scratch& s = scratch_of(req);
  result_buffer(req, view.specs.size());
  s.rng_pool.reserve(s.kernel_arena, kernels::mc::kRngChunk, scratch_slots(s));
  size_std_errors(view, res);
}

void store(std::span<const McResult> mc, std::size_t begin, PricingResult& res) {
  for (std::size_t i = 0; i < mc.size(); ++i) {
    res.values[begin + i] = mc[i].price;
    if (!res.std_errors.empty()) res.std_errors[begin + i] = mc[i].std_error;
  }
}

using StreamFn = void (*)(std::span<const core::OptionSpec>, std::span<const double>,
                          std::size_t, std::span<McResult>);

// The SIMD stream kernel at the widest width compiled in.
void optimized_stream_w(std::span<const core::OptionSpec> o, std::span<const double> z,
                        std::size_t n, std::span<McResult> out) {
  kernels::mc::price_optimized_stream(o, z, n, out);
}

template <StreamFn K>
void stream_range(const PricingRequest& req, const core::PortfolioView& view,
                  std::size_t begin, std::size_t end, PricingResult& res) {
  Scratch& s = *req.scratch;  // built by prepare_stream
  std::span<McResult> mc{s.mc.data() + begin, end - begin};
  K(view.specs.subspan(begin, end - begin), s.z, req.npath, mc);
  store(mc, begin, res);
}

// --- Path-block tasks (engine/task_group.hpp) --------------------------------
// When the engine hands this execution a task pool, each option's path
// integration splits into independent normal-array blocks; leaf tasks
// accumulate raw payoff moments and the spawner combines them in block
// order. Deterministic for a fixed npath (the split is a pure function of
// npath), but not bitwise-equal to the flat sweep — the reduction tree
// differs (see integrate_stream_partial's header note), which is why this
// rides only the optimized_stream rows and only when tasking is on.

constexpr std::size_t kMcTaskBlock = 8192;  // min paths per leaf task
constexpr int kMcMaxBlocks = 64;            // TaskGroup capacity

void stream_range_tasked(const PricingRequest& req, const core::PortfolioView& view,
                         std::size_t begin, std::size_t end, PricingResult& res) {
  Scratch& s = *req.scratch;  // built by prepare_stream
  const std::size_t npath = req.npath;
  if (!s.tasks_on || s.pool == nullptr || npath < 2 * kMcTaskBlock) {
    stream_range<optimized_stream_w>(req, view, begin, end, res);
    return;
  }
  static obs::Counter& paths = obs::counter("mc.paths");
  paths.add((end - begin) * npath);
  std::span<McResult> mc{s.mc.data() + begin, end - begin};
  const std::size_t blksz =
      std::max(kMcTaskBlock,
               (npath + static_cast<std::size_t>(kMcMaxBlocks) - 1) / kMcMaxBlocks);
  const int nblk = static_cast<int>((npath + blksz - 1) / blksz);
  const double* z = s.z.data();
  for (std::size_t o = begin; o < end; ++o) {
    const core::OptionSpec& opt = view.specs[o];
    kernels::mc::McMoments parts[kMcMaxBlocks];
    TaskGroup group(*s.pool);
    for (int i = 1; i < nblk; ++i) {
      const std::size_t lo = static_cast<std::size_t>(i) * blksz;
      const std::size_t cnt = std::min(blksz, npath - lo);
      const double* zp = z + lo;
      kernels::mc::McMoments* dst = &parts[i];
      const core::OptionSpec* op = &opt;
      group.spawn([op, zp, cnt, dst] {
        *dst = kernels::mc::integrate_stream_partial(*op, {zp, cnt});
      });
    }
    parts[0] = kernels::mc::integrate_stream_partial(opt, {z, blksz});
    group.join();
    kernels::mc::McMoments total;
    for (int i = 0; i < nblk; ++i) {
      total.v0 += parts[i].v0;
      total.v1 += parts[i].v1;
    }
    mc[o - begin] = kernels::mc::finalize_moments(opt, total, npath);
  }
  store(mc, begin, res);
}

using ComputedFn = void (*)(std::span<const core::OptionSpec>, std::size_t, std::uint64_t,
                            std::span<McResult>, std::uint64_t, core::ScratchPool*);

void optimized_computed_w(std::span<const core::OptionSpec> o, std::size_t n, std::uint64_t seed,
                          std::span<McResult> out, std::uint64_t base,
                          core::ScratchPool* scratch) {
  kernels::mc::price_optimized_computed(o, n, seed, out, Width::kAuto, base, scratch);
}
void variance_reduced_w(std::span<const core::OptionSpec> o, std::size_t n, std::uint64_t seed,
                        std::span<McResult> out, std::uint64_t base,
                        core::ScratchPool* scratch) {
  kernels::mc::price_variance_reduced(o, n, seed, out, /*antithetic=*/true,
                                      /*control_variate=*/true, base, scratch);
}

template <ComputedFn K>
void computed_range(const PricingRequest& req, const core::PortfolioView& view,
                    std::size_t begin, std::size_t end, PricingResult& res) {
  Scratch& s = *req.scratch;  // built by prepare_computed
  std::span<McResult> mc{s.mc.data() + begin, end - begin};
  K(view.specs.subspan(begin, end - begin), req.npath, req.seed, mc, begin, &s.rng_pool);
  store(mc, begin, res);
}

VariantInfo base(const char* id, OptLevel level, int width, const char* desc) {
  VariantInfo v;
  v.id = id;
  v.kernel = "mc";
  v.level = level;
  v.width = width;
  v.layout = Layout::kSpecs;
  v.exhibit = "Table II";
  v.description = desc;
  v.tolerance = 1e-9;
  v.flops_per_item = flops;
  v.european_only = true;  // terminal-value MC: European payoffs only
  v.range_align = 1;
  return v;
}

}  // namespace

void register_montecarlo(Registry& r) {
  {
    VariantInfo v = base("mc.reference_stream.scalar", OptLevel::kReference, 1,
                         "scalar path integration over streamed normals (Lis. 5)");
    v.reference_id = "";
    v.bytes_per_item = bytes_stream;
    v.prepare = prepare_stream;
    v.run_range = stream_range<kernels::mc::price_reference_stream>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("mc.optimized_stream.auto", OptLevel::kIntermediate, 0,
                         "explicit widest SIMD over paths, streamed normals");
    v.reference_id = "mc.reference_stream.scalar";
    v.bytes_per_item = bytes_stream;
    v.prepare = prepare_stream;
    v.run_range = stream_range_tasked;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("mc.reference_computed.scalar", OptLevel::kReference, 1,
                         "scalar integration, fresh Philox substream per option");
    v.reference_id = "";
    v.bytes_per_item = bytes_computed;
    v.prepare = prepare_computed;
    v.run_range = computed_range<kernels::mc::price_reference_computed>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("mc.optimized_computed.auto", OptLevel::kIntermediate, 0,
                         "widest SIMD, chunked Philox/ICDF interleaved with integration");
    v.reference_id = "mc.reference_computed.scalar";
    v.bytes_per_item = bytes_computed;
    v.prepare = prepare_computed;
    v.run_range = computed_range<optimized_computed_w>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("mc.variance_reduced.auto", OptLevel::kAdvanced, 0,
                         "antithetic pairs + terminal-stock control variate");
    v.reference_id = "mc.reference_computed.scalar";
    // Fallback chain: variance_reduced -> optimized_computed -> reference.
    v.fallback_id = "mc.optimized_computed.auto";
    v.statistical = true;  // different estimator: agrees within error bands
    v.tolerance = 0.05;
    v.bytes_per_item = bytes_computed;
    v.prepare = prepare_computed;
    v.run_range = computed_range<variance_reduced_w>;
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
