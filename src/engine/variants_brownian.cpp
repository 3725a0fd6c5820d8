// Registry adapters for the Brownian-bridge kernel family (paper Fig. 6).
//
// Path construction is a kPaths workload: run_batch builds nsim paths into
// PricingResult::values in the kernels' point-major layout (point c of
// simulation s at values[c * nsim + s]); the fused variant returns one
// path average per simulation instead. Pre-generated normals (and their
// lane-blocked reordering for the SIMD variants) live in the request
// Scratch, so repeated pricings time only the construction — Fig. 6's
// "timings do not account for random number generation".

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

int lanes(Width w) {
  return w == Width::kAuto ? vecmath::max_width() : static_cast<int>(w);
}

void prep_out(const core::PortfolioView& view, const Scratch& s, PricingResult& res) {
  const std::size_t need = view.npaths * s.sched->num_points();
  if (res.values.size() != need) res.values.assign(need, 0.0);
  res.items = view.npaths;
}

void run_reference(const PricingRequest& req, const core::PortfolioView& view,
                   PricingResult& res) {
  Scratch& s = prepared(req, view, 1);
  prep_out(view, s, res);
  kernels::brownian::construct_reference(*s.sched, s.bb_z, view.npaths, res.values);
}

void run_basic(const PricingRequest& req, const core::PortfolioView& view,
               PricingResult& res) {
  Scratch& s = prepared(req, view, 1);
  prep_out(view, s, res);
  kernels::brownian::construct_basic(*s.sched, s.bb_z, view.npaths, res.values);
}

template <Width W>
void run_intermediate(const PricingRequest& req, const core::PortfolioView& view,
                      PricingResult& res) {
  Scratch& s = prepared(req, view, lanes(W));
  prep_out(view, s, res);
  kernels::brownian::construct_intermediate(*s.sched, s.bb_z_blocked, view.npaths, res.values,
                                            W);
}

void run_interleaved(const PricingRequest& req, const core::PortfolioView& view,
                     PricingResult& res) {
  Scratch& s = prepared(req, view, 1);
  prep_out(view, s, res);
  kernels::brownian::construct_advanced_interleaved(*s.sched, req.seed, view.npaths,
                                                    res.values, Width::kAuto);
}

void run_fused(const PricingRequest& req, const core::PortfolioView& view,
               PricingResult& res) {
  Scratch& s = prepared(req, view, 1);
  if (res.values.size() != view.npaths) res.values.assign(view.npaths, 0.0);
  res.items = view.npaths;
  kernels::brownian::construct_advanced_fused(*s.sched, req.seed, view.npaths, res.values,
                                              Width::kAuto);
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
    v.run_batch = run_reference;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.basic.scalar", OptLevel::kBasic, 1,
                         "scalar construction + OpenMP across paths, simd pragmas");
    v.run_batch = run_basic;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.intermediate.avx2", OptLevel::kIntermediate, 4,
                         "4 paths per SIMD lane group, lane-blocked normals");
    v.run_batch = run_intermediate<Width::kAvx2>;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.intermediate.auto", OptLevel::kIntermediate, 0,
                         "widest SIMD across paths, lane-blocked normals");
    v.run_batch = run_intermediate<Width::kAuto>;
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
    v.run_batch = run_interleaved;
    r.add(std::move(v));
  }
  {
    VariantInfo v = base("brownian.advanced_fused.auto", OptLevel::kAdvanced, 0,
                         "cache-to-cache: path consumed (averaged) without touching DRAM");
    v.fallback_id = "brownian.intermediate.auto";
    v.statistical = true;
    v.tolerance = 0.08;
    v.bytes_per_item = bytes_fused;
    v.run_batch = run_fused;
    r.add(std::move(v));
  }
}

}  // namespace finbench::engine
