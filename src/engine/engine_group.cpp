// Engine::price_group / Engine::fusable — the multi-request fused entry
// point (finbench/engine/group.hpp). Fuses N compatible requests into one
// arena-backed portfolio, prices it through the ordinary Engine::price
// path (so negotiation, chunking, sanitization, deadlines, and fallback
// all apply once per group), then scatters outputs and per-member
// statuses back. Black–Scholes output guarding is deferred to the scatter
// pass so a guardrail trip is repaired and reported on the member that
// caused it, not smeared across the group.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "finbench/core/portfolio.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/robust/guards.hpp"
#include "finbench/robust/sanitize.hpp"
#include "finbench/tune/key.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

using core::Layout;

bool fusable_layout(Layout l) {
  return l == Layout::kSpecs || l == Layout::kBsAos || l == Layout::kBsSoa ||
         l == Layout::kBsSoaF;
}

// Deterministic kernels are element-wise across options, so fusion is
// bitwise-neutral. Monte Carlo never fuses: its statistical estimators
// and its computed-normals variants key per-option RNG substreams by
// batch index, so fusing would change a member's answer depending on who
// it shares a batch with.
bool fuses(const VariantInfo* v) { return v != nullptr && !v->statistical && v->kernel != "mc"; }

// Concatenate the members' inputs into one arena-backed batch in the
// members' (shared) layout. Black–Scholes outputs are left uninitialized —
// the kernel writes every call/put, and nothing is scattered back on paths
// that never ran.
core::PortfolioView build_fused(std::span<const GroupJob> group, core::Arena& arena,
                                std::vector<std::size_t>& offsets, std::size_t total) {
  const core::PortfolioView& p0 = group[0].req->portfolio;
  if (p0.layout == Layout::kSpecs) {
    std::span<core::OptionSpec> all = arena.make_span<core::OptionSpec>(total);
    std::size_t off = 0;
    for (const GroupJob& j : group) {
      const std::span<const core::OptionSpec> s = j.req->portfolio.specs;
      std::copy(s.begin(), s.end(), all.begin() + static_cast<std::ptrdiff_t>(off));
      offsets.push_back(off);
      off += s.size();
    }
    return core::view_of(std::span<const core::OptionSpec>(all));
  }
  const core::PortfolioView out = core::allocate_like(p0, p0.layout, total, arena);
  std::size_t off = 0;
  for (const GroupJob& j : group) {
    const core::PortfolioView& m = j.req->portfolio;
    core::copy_inputs(m, core::subview(out, off, m.size()));
    offsets.push_back(off);
    off += m.size();
  }
  return out;
}

}  // namespace

bool Engine::fusable(const PricingRequest& a, const PricingRequest& b) const {
  if (a.kernel_id != b.kernel_id) return false;
  const Layout la = a.portfolio.layout;
  if (la != b.portfolio.layout || !fusable_layout(la)) return false;
  // Fault injection is per-request by contract; a fused batch cannot
  // honor two plans, so any active plan opts the request out.
  if (a.faults.any() || b.faults.any()) return false;
  if (a.steps != b.steps || a.steps_per_year != b.steps_per_year || a.npath != b.npath ||
      a.bridge_depth != b.bridge_depth || a.cn_num_prices != b.cn_num_prices ||
      a.seed != b.seed) {
    return false;
  }
  if (a.sanitize != b.sanitize || a.fallback != b.fallback || a.guard.mode != b.guard.mode) {
    return false;
  }
  // One fused batch carries one set of shared scalars.
  if (core::is_bs(la) && core::bs_scalars(a.portfolio) != core::bs_scalars(b.portfolio)) {
    return false;
  }
  // Auto-intent pairs fuse on their *resolved* plans, not the intent
  // string: both must land on the same concrete variant with the same
  // chunk granularity and task mode (each member resolves through its own
  // scratch, so steady-state checks are cache hits, not races).
  if (tune::is_auto_id(a.kernel_id)) {
    const ResolvedDispatch ra = resolve_dispatch(*this, a);
    const ResolvedDispatch rb = resolve_dispatch(*this, b);
    return fuses(ra.v) && ra.v == rb.v && ra.chunks_per_thread == rb.chunks_per_thread && ra.tasks == rb.tasks;
  }
  // One fused batch runs one task mode.
  if (a.tasks != b.tasks) return false;
  return fuses(Registry::instance().find(a.kernel_id));
}

void Engine::price_group(std::span<const GroupJob> group, GroupScratch& gs) const {
  if (group.empty()) return;
  if (group.size() == 1) {
    price(*group[0].req, *group[0].res);
    return;
  }
  const PricingRequest& proto = *group[0].req;
  bool all_fusable = true;
  std::size_t total = 0;
  for (const GroupJob& j : group) {
    if (&j != &group[0] && !fusable(proto, *j.req)) {
      all_fusable = false;
      break;
    }
    total += j.req->portfolio.size();
  }
  if (!all_fusable || total == 0) {
    // A mis-grouped member would get wrong shared scalars or a changed
    // answer; price everyone individually instead of silently mis-fusing.
    for (const GroupJob& j : group) price(*j.req, *j.res);
    return;
  }

  // --- Fuse ----------------------------------------------------------------
  gs.arena.reset();
  gs.offsets.clear();
  const core::PortfolioView fused_view = build_fused(group, gs.arena, gs.offsets, total);

  PricingRequest& f = gs.fused;
  f.kernel_id = proto.kernel_id;
  f.portfolio = fused_view;
  f.steps = proto.steps;
  f.steps_per_year = proto.steps_per_year;
  f.npath = proto.npath;
  f.bridge_depth = proto.bridge_depth;
  f.cn_num_prices = proto.cn_num_prices;
  f.seed = proto.seed;
  f.chunks_per_thread = proto.chunks_per_thread;
  f.tasks = proto.tasks;
  // An auto group fuses on the plan the members resolved to at *their*
  // size: re-resolving at the fused size could land in a different size
  // bucket, pick a different variant, and break bitwise parity between a
  // coalesced member and the same request priced solo. The fused request
  // carries the plan's concrete id, chunk granularity and task mode
  // instead, which a concrete id runs verbatim.
  bool group_tuned = false;
  if (tune::is_auto_id(proto.kernel_id)) {
    ResolvedDispatch rd = resolve_dispatch(*this, proto);
    if (rd.v != nullptr) {
      f.kernel_id = rd.v->id;
      f.chunks_per_thread = rd.chunks_per_thread;
      f.tasks = rd.tasks ? TaskMode::kOn : TaskMode::kOff;
      group_tuned = true;
    }
  }
  f.sanitize = proto.sanitize;
  f.guard = proto.guard;
  f.fallback = proto.fallback;
  f.faults = {};
  // Defer the Black–Scholes output guard to the per-member scatter pass
  // below, so a guardrail trip is repaired and attributed to the member
  // whose range tripped it (kSpecs keeps the engine's chunk-level guard —
  // chunk quarantine/fallback machinery lives there).
  const bool bs = core::is_bs(fused_view.layout);
  if (bs) f.guard.mode = robust::GuardMode::kOff;
  // Group deadline: explicit override, else the most urgent member.
  f.cancel = gs.cancel;
  f.deadline_seconds = gs.deadline_seconds;
  if (f.deadline_seconds <= 0.0) {
    for (const GroupJob& j : group) {
      const double d = j.req->deadline_seconds;
      if (d > 0.0 && (f.deadline_seconds <= 0.0 || d < f.deadline_seconds)) {
        f.deadline_seconds = d;
      }
    }
  }
  price(f, gs.fused_res);
  const PricingResult& fr = gs.fused_res;

  // --- Scatter -------------------------------------------------------------
  // Each member is decided from the fused chunk statuses over its own
  // range, whatever happened to the rest of the group: a member whose
  // every overlapping chunk priced gets a clean (or degraded) status; a
  // member with an unpriced chunk takes the fused status (deadline or
  // kernel error) with its partial outputs disclosed — priced values, NaN
  // for the rest, as a solo pricing leaves them. A run that never
  // executed (rejection, unknown kernel, failed prepare) has no chunk
  // statuses or only kNotRun ones — after an execution the post-pass
  // leaves none: every member takes the fused status and its outputs stay
  // untouched.
  const std::size_t nchunks = fr.chunk_status.size();
  const bool ran =
      std::any_of(fr.chunk_status.begin(), fr.chunk_status.end(), [](std::uint8_t c) {
        return static_cast<ChunkStatus>(c) != ChunkStatus::kNotRun;
      });
  const std::size_t one_chunk[2] = {0, total};
  const std::span<const std::size_t> bounds =
      nchunks == 1 ? std::span<const std::size_t>(one_chunk)
                   : std::span<const std::size_t>(scratch_of(f).bounds);
  std::size_t first = 0;  // first fused chunk overlapping the member
  for (std::size_t j = 0; j < group.size(); ++j) {
    const std::size_t off = gs.offsets[j];
    const std::size_t m = group[j].req->portfolio.size();
    const PricingRequest& req = *group[j].req;
    PricingResult& r = *group[j].res;
    r.reset(req.kernel_id);  // the member's own (intent) id
    r.resolved_id = fr.resolved_id;
    r.tuned = group_tuned;
    r.request_id = fr.request_id;
    r.layout = fr.layout;
    r.seconds = fr.seconds;
    r.convert_seconds = fr.convert_seconds;
    r.convert_bytes = fr.convert_bytes;
    if (!fr.option_faults.empty()) {
      r.option_faults.assign(fr.option_faults.begin() + static_cast<std::ptrdiff_t>(off),
                             fr.option_faults.begin() + static_cast<std::ptrdiff_t>(off + m));
      for (const std::uint8_t bit : r.option_faults) {
        if (bit & robust::kFaultSkipped) ++r.options_skipped;
        if (bit & robust::kFaultClamped) ++r.options_clamped;
      }
    }
    if (!ran) {
      r.status = fr.status;
      continue;
    }

    // Walk the fused chunks overlapping [off, off + m). A priced
    // Black–Scholes segment is re-guarded with the member's own policy
    // (repairs land in the fused arrays first), so a guardrail trip is
    // repaired and reported on the member that caused it.
    while (first + 1 < nchunks && bounds[first + 1] <= off) ++first;
    for (std::size_t c = first; c < nchunks && bounds[c] < off + m; ++c) {
      const std::size_t lo = std::max(bounds[c], off);
      const std::size_t hi = std::min(bounds[c + 1], off + m);
      const auto status = static_cast<ChunkStatus>(fr.chunk_status[c]);
      if (status == ChunkStatus::kFailed) {
        ++r.chunks_failed;
        continue;
      }
      if (status != ChunkStatus::kOk && status != ChunkStatus::kDegraded) {
        ++r.chunks_deadline;
        continue;
      }
      if (status == ChunkStatus::kDegraded) ++r.chunks_degraded;
      r.items += hi - lo;
      if (bs && req.guard.mode != robust::GuardMode::kOff) {
        std::span<const std::uint8_t> mask;
        if (!r.option_faults.empty()) mask = {r.option_faults.data() + (lo - off), hi - lo};
        r.options_repaired += robust::guard_and_repair_bs(core::subview(fused_view, lo, hi - lo),
                                                          req.guard, mask);
      }
    }
    // Copy the member's slice back to where Engine::price would have
    // written it.
    if (bs) {
      core::copy_outputs(core::subview(fused_view, off, m), req.portfolio);
    } else if (fr.values.size() == total) {
      r.values.assign(fr.values.begin() + static_cast<std::ptrdiff_t>(off),
                      fr.values.begin() + static_cast<std::ptrdiff_t>(off + m));
      if (!fr.std_errors.empty()) {
        r.std_errors.assign(fr.std_errors.begin() + static_cast<std::ptrdiff_t>(off),
                            fr.std_errors.begin() + static_cast<std::ptrdiff_t>(off + m));
      }
    }
    if (r.items < m) {
      r.status = fr.status;
    } else if (r.options_repaired > 0 || r.options_skipped > 0 || r.options_clamped > 0 ||
               r.chunks_degraded > 0) {
      r.status.set(robust::StatusCode::kDegraded,
                   "degraded in fused batch (see option_faults / options_repaired)");
    }
  }
}

}  // namespace finbench::engine
