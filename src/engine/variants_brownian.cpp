// Registry adapters for the Brownian-bridge kernel family (paper Fig. 6).
//
// Path construction is a kPaths workload: the variants build nsim paths
// into PricingResult::values in the kernels' point-major layout (point c
// of simulation s at values[c * nsim + s]); the fused variant returns one
// path average per simulation instead. A range is a run of whole lane
// groups (range_align 8 covers every width), so its normals — the
// lane-blocked stream, or the per-group Philox streams of the interleaved
// variants — and therefore its outputs are those of the whole batch.
// Pre-generated normals (and their lane-blocked reordering for the SIMD
// variants) live in the request Scratch, so repeated pricings time only
// the construction — Fig. 6's "timings do not account for random number
// generation".

#include <stdexcept>

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
double bytes_interleaved(const PricingRequest& req) {
  return 8.0 * static_cast<double>((std::size_t{1} << req.bridge_depth) + 1);
}
double bytes_fused(const PricingRequest&) { return 8.0; }

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

// Values per path: the whole path, or its average (the fused variant).
std::size_t path_values(const Scratch& s, bool fused) {
  return fused ? 1 : s.sched->num_points();
}

// The prepare hook: schedule, normals (lane-blocked for the widest width
// when Blocked) and the point-major output.
template <bool Blocked, bool Fused>
void prepare_paths(const PricingRequest& req, const core::PortfolioView& view,
                   PricingResult& res) {
  const Scratch& s = prepared(req, view, Blocked ? vecmath::max_width() : 1);
  const std::size_t need = view.npaths * path_values(s, Fused);
  if (res.values.size() != need) res.values.assign(need, 0.0);
}

// The output a range writes into. A fallback link whose outputs have
// another shape (full paths for an averaging variant) refuses to write.
std::span<double> path_out(const PricingRequest& req, const core::PortfolioView& view,
                           PricingResult& res, bool fused) {
  if (res.values.size() != view.npaths * path_values(*req.scratch, fused)) {
    throw std::length_error("brownian: the result holds paths of another shape");
  }
  return res.values;
}

void run_reference(const PricingRequest& req, const core::PortfolioView& view,
                   std::size_t begin, std::size_t end, PricingResult& res) {
  const Scratch& s = *req.scratch;
  kernels::brownian::construct_reference(*s.sched, s.bb_z, view.npaths,
                                         path_out(req, view, res, false), begin, end);
}

void run_basic(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
               std::size_t end, PricingResult& res) {
  const Scratch& s = *req.scratch;
  kernels::brownian::construct_basic(*s.sched, s.bb_z, view.npaths,
                                     path_out(req, view, res, false), begin, end);
}

void run_intermediate(const PricingRequest& req, const core::PortfolioView& view,
                      std::size_t begin, std::size_t end, PricingResult& res) {
  const Scratch& s = *req.scratch;
  kernels::brownian::construct_intermediate(*s.sched, s.bb_z_blocked, view.npaths,
                                            path_out(req, view, res, false), Width::kAuto,
                                            begin, end);
}

void run_interleaved(const PricingRequest& req, const core::PortfolioView& view,
                     std::size_t begin, std::size_t end, PricingResult& res) {
  kernels::brownian::construct_advanced_interleaved(*req.scratch->sched, req.seed, view.npaths,
                                                    path_out(req, view, res, false),
                                                    Width::kAuto, begin, end);
}

void run_fused(const PricingRequest& req, const core::PortfolioView& view, std::size_t begin,
               std::size_t end, PricingResult& res) {
  kernels::brownian::construct_advanced_fused(*req.scratch->sched, req.seed, view.npaths,
                                              path_out(req, view, res, true), Width::kAuto,
                                              begin, end);
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
    v.prepare = prepare_paths<false, false>;
    v.run_range = run_reference;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.basic.scalar", OptLevel::kBasic, 1,
                         "scalar construction (no vectorizable loop for pragmas)");
    v.prepare = prepare_paths<false, false>;
    v.run_range = run_basic;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.intermediate.auto", OptLevel::kIntermediate, 0,
                         "widest SIMD across paths, lane-blocked normals");
    v.prepare = prepare_paths<true, false>;
    v.run_range = run_intermediate;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.advanced_interleaved.auto", OptLevel::kAdvanced, 0,
                         "normals generated on the fly in cache-resident chunks");
    // Fallback chain: advanced_* -> intermediate -> reference.
    v.fallback_id = "brownian.intermediate.auto";
    v.statistical = true;  // draws its own normals
    v.tolerance = 0.08;    // |mean| band at >= 4096 validation paths
    v.bytes_per_item = bytes_interleaved;
    v.prepare = prepare_paths<false, false>;
    v.run_range = run_interleaved;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.advanced_fused.auto", OptLevel::kAdvanced, 0,
                         "cache-to-cache: path consumed (averaged) without touching DRAM");
    v.fallback_id = "brownian.intermediate.auto";
    v.statistical = true;
    v.tolerance = 0.08;
    v.bytes_per_item = bytes_fused;
    v.prepare = prepare_paths<false, true>;
    v.run_range = run_fused;
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
