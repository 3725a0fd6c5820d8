// Registry adapters for the binomial-lattice kernel family (paper Fig. 5).
//
// Uniform depth (PricingRequest::steps): each chunk goes through the
// variant's own batch kernel, one option per SIMD lane (Lis. 2-3).
//
// Mixed depth (steps_per_year > 0, depth = T x steps_per_year): one option
// costs ~3 s(s+1)/2 flops at depth s, so a 3-year option costs two orders
// of magnitude more than a 1-month one.
//   - The SIMD variants (intermediate, advanced) price in depth packs of W
//     lanes. Their prepare hook plans the packs once per request
//     (Scratch::order): it sorts the options by class (exercise style,
//     payoff side), then depth, cuts each class into W-lane packs from its
//     deep end, and orders the full packs longest first, each class's
//     partial pack last. The engine prices the options in that order, in
//     chunks of whole packs weighted by lattice cost, so dynamic
//     self-scheduling runs the longest packs first, and scatters the
//     outputs back. A range is priced pack after pack
//     (kernels::binomial::price_packed, no sort); advanced reduces the
//     packs in register tiles cut at lane start levels
//     (price_packed_tiled), bitwise equal to intermediate's level passes;
//     both drop the exercise test of a put pack above its exercise cut,
//     where it cannot change a bit. Lanes never interact, so outputs are
//     bitwise the same under any plan, chunking, participant count,
//     schedule and task mode.
//   - The scalar variants (reference, basic) price one option at a time,
//     and with tasks on they split deep European options into banded
//     segment tasks on the engine pool, bitwise-equal to the reference.

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>

#include "finbench/engine/task_group.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/obs/metrics.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

using core::OptLevel;
using kernels::binomial::Width;
namespace banded = kernels::binomial::banded;

// Effective lattice depth for one option under this request.
int steps_for(const core::OptionSpec& o, const PricingRequest& req) {
  return req.steps_per_year > 0 ? kernels::binomial::depth_for(o, req.steps_per_year)
                                : req.steps;
}

// Mean cost of one option of the request: per-option depths make the
// roofline's flops per item the book's mean lattice cost, not req.steps'.
double flops(const PricingRequest& req) {
  const std::span<const core::OptionSpec> specs = req.portfolio.specs;
  if (req.steps_per_year <= 0 || specs.empty()) {
    return kernels::binomial::flops_per_option(req.steps);
  }
  double sum = 0.0;
  for (const core::OptionSpec& o : specs) {
    sum += kernels::binomial::flops_per_option(steps_for(o, req));
  }
  return sum / static_cast<double>(specs.size());
}
double bytes(const PricingRequest&) { return 0.0; }  // compute-bound

double item_cost(const core::OptionSpec& o, const PricingRequest& req) {
  const double s = steps_for(o, req);
  return s * (s + 1);
}

using BatchFn = void (*)(std::span<const core::OptionSpec>, int, std::span<double>,
                         core::ScratchPool*);
// (opts, steps_per_year, out, width, scratch): kernels::binomial::price_packed.
using PackedFn = void (*)(std::span<const core::OptionSpec>, int, std::span<double>, Width,
                          core::ScratchPool*);

// Uniform-depth kernels take (opts, steps, out, scratch); the SIMD ones
// run at the widest width compiled in.
template <void (*K)(std::span<const core::OptionSpec>, int, std::span<double>, Width,
                    core::ScratchPool*)>
void widest(std::span<const core::OptionSpec> o, int s, std::span<double> out,
            core::ScratchPool* scratch) {
  K(o, s, out, Width::kAuto, scratch);
}

// Deepest lattice any option of this request needs — the scratch pool's
// slot size (heterogeneous depths size for the worst option).
int max_steps(const PricingRequest& req, const core::PortfolioView& view) {
  if (req.steps_per_year <= 0) return req.steps;
  int m = 16;
  for (const core::OptionSpec& o : view.specs) m = std::max(m, steps_for(o, req));
  return m;
}

// The prepare hook: carve the per-participant lattice slots once per
// request (idempotent, so steady-state repetitions never allocate).
void reserve_lattice(const PricingRequest& req, const core::PortfolioView& view,
                     PricingResult&) {
  Scratch& s = scratch_of(req);
  s.lattice_pool.reserve(s.kernel_arena,
                         kernels::binomial::lattice_doubles(max_steps(req, view)),
                         scratch_slots(s));
}

// The depth-pack plan of a mixed-depth request (header comment): after one
// sort, class c holds keys [first[c], first[c+1]), its partial pack at the
// shallow end [first[c], floor[c]) and its full packs above. A four-way
// merge from the classes' deep ends takes the full packs longest first,
// then the partial packs follow. Records the plan's lane fill — useful
// lane-levels (each lane's own depth) over computed ones (W lanes x the
// pack's top depth) — in the binomial.lane_fill stat, once per request.
// Chunk bounds are multiples of range_align (8, a multiple of W), so no
// chunk cuts a full pack; a bound in the shallow tail may cut a partial
// pack in two, which the stat does not count.
void plan_packs(const PricingRequest& req, const core::PortfolioView& view, Scratch& s) {
  namespace bin = kernels::binomial;
  const std::span<const core::OptionSpec> specs = view.specs;
  const std::size_t n = specs.size();
  if (n == 0 || n > UINT32_MAX) return;
  const std::size_t W = static_cast<std::size_t>(bin::pack_lanes());
  std::vector<std::uint64_t>& keys = s.order_keys;
  keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = bin::depth_key(steps_for(specs[i], req), specs[i], i);
  }
  std::sort(keys.begin(), keys.end());

  constexpr unsigned kClasses = 4;
  std::size_t first[kClasses + 1], floor[kClasses], hi[kClasses];
  for (unsigned c = 0; c <= kClasses; ++c) {
    first[c] = static_cast<std::size_t>(
        std::partition_point(keys.begin(), keys.end(),
                             [c](std::uint64_t k) { return bin::key_class(k) < c; }) -
        keys.begin());
  }
  for (unsigned c = 0; c < kClasses; ++c) {
    floor[c] = first[c] + (first[c + 1] - first[c]) % W;
    hi[c] = first[c + 1];
  }
  s.order.resize(n);
  std::size_t pos = 0;
  double useful = 0.0, computed = 0.0;
  const auto emit = [&](std::size_t lo, std::size_t end) {
    for (std::size_t i = lo; i < end; ++i) {
      s.order[pos++] = static_cast<std::uint32_t>(bin::key_index(keys[i]));
      useful += bin::key_steps(keys[i]);
    }
    computed += static_cast<double>(W) * bin::key_steps(keys[end - 1]);
  };
  const auto top = [&](unsigned c) { return bin::key_steps(keys[hi[c] - 1]); };
  for (;;) {
    unsigned best = kClasses;
    for (unsigned c = 0; c < kClasses; ++c) {
      if (hi[c] > floor[c] && (best == kClasses || top(c) > top(best))) best = c;
    }
    if (best == kClasses) break;
    emit(hi[best] - W, hi[best]);
    hi[best] -= W;
  }
  for (unsigned c = 0; c < kClasses; ++c) {
    if (floor[c] > first[c]) emit(first[c], floor[c]);
  }
  static obs::Stat& lane_fill = obs::stat("binomial.lane_fill");
  lane_fill.record(useful / computed);
}

// The SIMD variants' prepare hook: lattice slots, and the pack plan of a
// mixed-depth request. A fallback link's fresh Scratch has no pool: it
// re-prices a range of a view the engine already put in plan order, so it
// plans nothing.
void reserve_and_plan(const PricingRequest& req, const core::PortfolioView& view,
                      PricingResult& res) {
  reserve_lattice(req, view, res);
  Scratch& s = scratch_of(req);
  if (req.steps_per_year > 0 && s.pool != nullptr) plan_packs(req, view, s);
}

// --- Intra-option task decomposition (engine/task_group.hpp) -----------------
// When Engine::price hands this execution a task pool (Scratch::tasks_on),
// deep European options split their band passes into TaskGroup segments
// instead of reducing serially on one worker. Every segment computes the
// identical floating-point expression the reference kernel uses, so the
// tasked result stays bitwise-equal to the flat path (see the banded
// header comment) — the decomposition only changes *who* computes.

struct TaskedSegCtx {
  ThreadPool* pool;
  core::ScratchPool* scratch;        // per-task work leases
  std::span<double> spawner_work;    // serial fallback / spawner's own segment
};

void tasked_segment_runner(void* ctx_p, const banded::Segment* segs, int nseg) {
  auto* ctx = static_cast<TaskedSegCtx*>(ctx_p);
  if (nseg <= 1) {
    for (int i = 0; i < nseg; ++i) banded::reduce_segment(segs[i], ctx->spawner_work);
    return;
  }
  // Independent segments: a spawn past the group's capacity runs inline,
  // which is just as correct. The spawner keeps segs[0] for itself and
  // helps in join() once it is done.
  TaskGroup group(*ctx->pool);
  core::ScratchPool* scratch = ctx->scratch;
  for (int i = 1; i < nseg; ++i) {
    const banded::Segment seg = segs[i];
    group.spawn([seg, scratch] {
      const std::size_t need = banded::work_doubles(seg);
      const core::ScratchBuf work(scratch, need);
      banded::reduce_segment(seg, {work.data(), need});
    });
  }
  banded::reduce_segment(segs[0], ctx->spawner_work);
  group.join();
}

// One deep European option through the banded decomposition. The chunk
// claims one lattice-pool slot for the ping-pong lattices plus the
// spawner's work row: 3*(steps+1) doubles fits the (steps+1)*8 slot.
double price_one_tasked(const core::OptionSpec& opt, int steps, Scratch& s) {
  const std::size_t lat = static_cast<std::size_t>(steps) + 1;
  const core::ScratchBuf buf(&s.lattice_pool, 3 * lat);
  double* const base = buf.data();
  TaskedSegCtx ctx{s.pool, &s.lattice_pool, {base + 2 * lat, lat}};
  return banded::price_one_banded(opt, steps, {base, 2 * lat}, tasked_segment_runner, &ctx);
}

// Mixed depths one option at a time (the scalar variants); with tasks on,
// deep European options go through the banded decomposition, which is
// bitwise-neutral against the scalar reference.
template <BatchFn K>
void run_each(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
              std::size_t end, PricingResult& res) {
  Scratch& s = scratch_of(req);
  const bool tasks = s.tasks_on && s.pool != nullptr;
  for (std::size_t o = begin; o < end; ++o) {
    const core::OptionSpec& opt = view.specs[o];
    const int steps = steps_for(opt, req);
    if (tasks && steps >= banded::kMinTaskSteps &&
        opt.style == core::ExerciseStyle::kEuropean) {
      res.values[o] = price_one_tasked(opt, steps, s);
      continue;
    }
    K(view.specs.subspan(o, 1), steps, {res.values.data() + o, 1}, &s.lattice_pool);
  }
}

// P is a PackedFn, or nullptr for the scalar variants. A mixed-depth
// range of the SIMD variants is priced in consecutive packs: in the
// engine's plan order, whole planned packs.
template <BatchFn K, auto P>
void run_range(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
               std::size_t end, PricingResult& res) {
  const std::span<const core::OptionSpec> opts = view.specs.subspan(begin, end - begin);
  const std::span<double> out{res.values.data() + begin, end - begin};
  core::ScratchPool* const pool = &scratch_of(req).lattice_pool;
  if (req.steps_per_year <= 0) {
    K(opts, req.steps, out, pool);
  } else if constexpr (std::is_null_pointer_v<decltype(P)>) {
    run_each<K>(req, view, begin, end, res);
  } else {
    P(opts, req.steps_per_year, out, Width::kAuto, pool);
  }
}

// --- Blocked-layout family (Layout::kBsBlocked AoSoA tiles) ------------------
// Ranges of whole blocks (range boundaries are multiples of 64 options
// for every Black–Scholes layout): the blocked view carries no
// per-option expiry scaling and writes call+put straight back into tile
// fields 3/4, so outputs flow through the layout (validate.cpp's blocked
// reader), not res.values.

double blocked_flops(const PricingRequest& req) {
  return 2.0 * kernels::binomial::flops_per_option(req.steps);  // call + put
}

// Reserve enough for the dual lattice at the widest width: 2*(steps+1)*8
// doubles per participant == lattice_doubles(steps, 16).
void reserve_blocked(const PricingRequest& req, const core::PortfolioView&, PricingResult&) {
  Scratch& s = scratch_of(req);
  s.lattice_pool.reserve(s.kernel_arena, kernels::binomial::lattice_doubles(req.steps, 16),
                         scratch_slots(s));
}

void run_blocked(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
                 std::size_t end, PricingResult&) {
  kernels::binomial::price_blocked(core::subview(view, begin, end - begin).blocked, req.steps,
                                   Width::kAuto, &scratch_of(req).lattice_pool);
}

// Spec-gather baseline and blocked-layout validation anchor: each lane is
// gathered into an OptionSpec and both sides priced through the scalar
// reference kernel. This is the comparison the CI lattice gate holds the
// tile variants against (docs: the blocked family must beat the gather).
void run_blocked_gather(const PricingRequest& req, const core::PortfolioView& view,
                        std::size_t begin, std::size_t end, PricingResult&) {
  const core::BsBlockedView& b = view.blocked;
  core::ScratchPool* pool = &scratch_of(req).lattice_pool;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t blk = i / core::kBsBlock;
    const std::size_t ln = i % core::kBsBlock;
    core::OptionSpec o{};
    o.spot = b.field(blk, 0)[ln];
    o.strike = b.field(blk, 1)[ln];
    o.years = b.field(blk, 2)[ln];
    o.rate = b.rate;
    o.vol = b.vol;
    o.dividend = b.dividend;
    o.style = core::ExerciseStyle::kEuropean;
    o.type = core::OptionType::kCall;
    kernels::binomial::price_reference({&o, 1}, req.steps, {b.field(blk, 3) + ln, 1}, pool);
    o.type = core::OptionType::kPut;
    kernels::binomial::price_reference({&o, 1}, req.steps, {b.field(blk, 4) + ln, 1}, pool);
  }
}

VariantInfo base(const char* id, OptLevel level, int width, const char* desc) {
  VariantInfo v;
  v.id = id;
  v.kernel = "binomial";
  v.level = level;
  v.width = width;
  v.layout = Layout::kSpecs;
  v.exhibit = "Fig. 5";
  v.description = desc;
  v.reference_id = "binomial.reference.scalar";
  v.tolerance = 1e-8;
  v.flops_per_item = flops;
  v.bytes_per_item = bytes;
  v.item_cost = item_cost;
  return v;
}

// P: the packed kernel the SIMD variants' mixed-depth chunks run through
// (nullptr for the scalar variants, which price one option at a time and
// plan nothing).
template <BatchFn K, auto P = nullptr>
void wire(VariantInfo& v) {
  if constexpr (std::is_null_pointer_v<decltype(P)>) {
    v.prepare = reserve_lattice;
  } else {
    v.prepare = reserve_and_plan;
  }
  v.run_range = run_range<K, P>;
}

void wire_blocked(VariantInfo& v, decltype(VariantInfo::run_range) range) {
  v.layout = Layout::kBsBlocked;
  v.european_only = true;
  v.flops_per_item = blocked_flops;
  v.prepare = reserve_blocked;
  v.run_range = range;
}

}  // namespace

void register_binomial(Registry& r) {
  {
    VariantInfo v = base("binomial.reference.scalar", OptLevel::kReference, 1,
                         "per-option scalar CRR reduction (Lis. 2)");
    v.reference_id = "";
    wire<kernels::binomial::price_reference>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("binomial.basic.auto", OptLevel::kBasic, 0,
                         "inner-loop autovectorization, scalar across options");
    v.tolerance = 1e-12;
    // price_basic's backward induction carries no early-exercise max —
    // the omp-simd inner loop is pure continuation value.
    v.european_only = true;
    wire<kernels::binomial::price_basic>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("binomial.intermediate.auto", OptLevel::kIntermediate, 0,
                         "widest SIMD across options, one option per lane");
    wire<widest<kernels::binomial::price_intermediate>, kernels::binomial::price_packed>(v);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("binomial.advanced.auto", OptLevel::kAdvanced, 0,
                         "register tiling (Lis. 3), widest");
    // Fallback chain: advanced -> intermediate -> reference.
    v.fallback_id = "binomial.intermediate.auto";
    wire<widest<kernels::binomial::price_advanced>, kernels::binomial::price_packed_tiled>(v);
    r.add(std::move(v));
  }
  // --- Blocked (AoSoA) family ----------------------------------------------
  // European CRR straight off Layout::kBsBlocked tiles: aligned unit-stride
  // lane setup (no OptionSpec gather) and dual call+put lattices reducing
  // together for ILP. The gather baseline is the family's validation anchor
  // (cross-layout comparison against the specs reference would mismatch
  // output shapes — blocked emits call+put pairs) and, sharing the blocked
  // layout, the tile variant's fallback link.
  {
    VariantInfo v = base("binomial.blocked_gather.scalar", OptLevel::kReference, 1,
                         "per-lane OptionSpec gather through the scalar reference");
    v.reference_id = "";
    wire_blocked(v, run_blocked_gather);
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("binomial.blocked.auto", OptLevel::kAdvanced, 0,
                         "AoSoA tiles, widest DP, dual call+put lattices");
    v.reference_id = "binomial.blocked_gather.scalar";
    wire_blocked(v, run_blocked);
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
