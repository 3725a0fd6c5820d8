// Registry adapters for the Brownian-bridge kernel family (paper Fig. 6).
//
// Path construction is a kPaths workload: the variants build nsim paths
// into PricingResult::values in the kernels' point-major layout (point c
// of simulation s at values[c * nsim + s]), every variant from the same
// normals, so every one returns the same paths. A range is a run of whole
// lane groups (range_align 8 covers every width), so its normals — the
// lane-blocked stream — and therefore its outputs are those of the whole
// batch. Pre-generated normals (and their lane-blocked reordering for the
// SIMD variant) live in the request Scratch, so repeated pricings time
// only the construction — Fig. 6's "timings do not account for random
// number generation". The paper's basic and RNG-interleaved levels are
// Fig. 6 exhibit rows that call the kernels directly.

#include "finbench/kernels/brownian.hpp"
#include "finbench/rng/normal.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

using core::OptLevel;
using kernels::brownian::BridgeSchedule;
using kernels::brownian::Width;

double flops(const PricingRequest& req) {
  return kernels::brownian::flops_per_path(req.bridge_depth);
}
double bytes_stream(const PricingRequest& req) {
  const double zn = static_cast<double>(std::size_t{1} << req.bridge_depth);
  return 8.0 * (2.0 * zn + 1.0);  // normals in, path out
}

Scratch& prepared(const PricingRequest& req, const core::PortfolioView& view, int blocked_width) {
  Scratch& s = scratch_of(req);
  if (!s.sched || s.sched->depth() != req.bridge_depth) {
    s.sched = std::make_unique<BridgeSchedule>(BridgeSchedule::uniform(req.bridge_depth, 1.0));
    s.bb_z.clear();
    s.bb_z_blocked.clear();
    s.bb_blocked_width = 0;
  }
  const std::size_t need = view.npaths * s.sched->normals_per_path();
  if (s.bb_z.size() < need) {
    s.bb_z.resize(need);
    rng::NormalStream stream(req.seed);
    stream.fill({s.bb_z.data(), s.bb_z.size()});
    s.bb_z_blocked.clear();
    s.bb_blocked_width = 0;
  }
  if (blocked_width > 1 && s.bb_blocked_width != blocked_width) {
    s.bb_z_blocked = kernels::brownian::lane_block_normals(
        s.bb_z, view.npaths, s.sched->normals_per_path(), blocked_width);
    s.bb_blocked_width = blocked_width;
  }
  return s;
}

// The prepare hook: schedule, normals (lane-blocked for the widest width
// when Blocked) and the point-major output.
template <bool Blocked>
void prepare_paths(const PricingRequest& req, const core::PortfolioView& view,
                   PricingResult& res) {
  const Scratch& s = prepared(req, view, Blocked ? vecmath::max_width() : 1);
  const std::size_t need = view.npaths * s.sched->num_points();
  if (res.values.size() != need) res.values.assign(need, 0.0);
}

void run_reference(const PricingRequest& req, const core::PortfolioView& view,
                   std::size_t begin, std::size_t end, PricingResult& res) {
  const Scratch& s = *req.scratch;
  kernels::brownian::construct_reference(*s.sched, s.bb_z, view.npaths, res.values, begin, end);
}

void run_intermediate(const PricingRequest& req, const core::PortfolioView& view,
                      std::size_t begin, std::size_t end, PricingResult& res) {
  const Scratch& s = *req.scratch;
  kernels::brownian::construct_intermediate(*s.sched, s.bb_z_blocked, view.npaths, res.values,
                                            Width::kAuto, begin, end);
}

VariantInfo base(const char* id, OptLevel level, int width, const char* desc) {
  VariantInfo v;
  v.id = id;
  v.kernel = "brownian";
  v.level = level;
  v.width = width;
  v.layout = Layout::kPaths;
  v.exhibit = "Fig. 6";
  v.description = desc;
  v.reference_id = "brownian.reference.scalar";
  v.tolerance = 1e-12;
  v.flops_per_item = flops;
  v.bytes_per_item = bytes_stream;
  return v;
}

}  // namespace

void register_brownian(Registry& r) {
  {
    VariantInfo v = base("brownian.reference.scalar", OptLevel::kReference, 1,
                         "per-path scalar midpoint refinement (Lis. 4)");
    v.reference_id = "";
    v.prepare = prepare_paths<false>;
    v.run_range = run_reference;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.intermediate.auto", OptLevel::kIntermediate, 0,
                         "widest SIMD across paths, lane-blocked normals");
    v.prepare = prepare_paths<true>;
    v.run_range = run_intermediate;
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
