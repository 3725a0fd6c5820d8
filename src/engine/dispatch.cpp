// Dispatch resolution: the first step of Engine::price / price_group.
// Explicit kernel ids pass straight through to the registry; auto-intent
// ids ("<family>.auto", e.g. "blackscholes.auto") resolve to a concrete
// DispatchPlan through finbench::tune — PlanCache hit or a one-time race —
// and run the plan's variant, chunks_per_thread and task mode. The
// request's own chunks_per_thread and tasks apply to concrete ids only.
//
// The resolution is cached in the request's Scratch keyed on every
// TuneKey ingredient, so a steady-state repetition of the same request
// neither rebuilds the key (a string allocation) nor takes the PlanCache
// mutex: re-pricing a resolved auto request stays allocation-free.

#include <string>

#include "finbench/obs/metrics.hpp"
#include "finbench/resilience/breaker.hpp"
#include "finbench/tune/tuner.hpp"
#include "variants.hpp"

namespace finbench::engine {

ResolvedDispatch resolve_dispatch(const Engine& eng, const PricingRequest& req) {
  ResolvedDispatch out;
  if (!tune::is_auto_id(req.kernel_id)) {
    // A concrete id runs verbatim; its kAuto task mode means threads > 1.
    out.chunks_per_thread = req.chunks_per_thread;
    out.tasks = req.tasks == TaskMode::kOn ||
                (req.tasks == TaskMode::kAuto && eng.pool_size() > 1);
    out.v = Registry::instance().find(req.kernel_id);
    if (out.v == nullptr) {
      out.error = robust::Status::not_found("unknown kernel id '" + req.kernel_id +
                                            "' (see pricectl --list)");
    }
    return out;
  }

  // Never race an empty workload: a plan measured over nothing is
  // meaningless and would persist.
  if (req.portfolio.size() == 0) {
    out.error = robust::Status::invalid_argument(
        "auto intent '" + req.kernel_id + "' got an empty workload (layout " +
        std::string(core::to_string(req.portfolio.layout)) + ")");
    return out;
  }

  const std::string_view family = tune::auto_family(req.kernel_id);
  if (family.empty()) {
    out.error = robust::Status::not_found(
        "unknown auto family in '" + req.kernel_id +
        "' (families: bs/blackscholes, binomial, mc/montecarlo, brownian, cn/cranknicolson)");
    return out;
  }

  Scratch& s = scratch_of(req);
  const int threads = eng.pool_size();
  const void* src = workload_data_key(req.portfolio);
  bool cached = s.has_plan && s.plan_src == src && s.plan_n == req.portfolio.size() &&
                s.plan_layout == req.portfolio.layout && s.plan_threads == threads &&
                s.plan_steps == req.steps && s.plan_spy == req.steps_per_year &&
                s.plan_npath == req.npath && s.plan_bridge == req.bridge_depth &&
                s.plan_cn == req.cn_num_prices;

  // Even a scratch-cached plan must pass the winner's circuit breaker: a
  // variant that trips mid-stream re-routes steady-state request loops
  // too, and the same check grants the half-open probes that let it come
  // back. The handle is cached beside the plan; the generation guard
  // re-resolves it after a BreakerRegistry::reset().
  resilience::BreakerRegistry& brk = resilience::BreakerRegistry::instance();
  if (cached && brk.enabled()) {
    const std::uint64_t gen = brk.generation();
    if (s.plan_breaker == nullptr || s.plan_breaker_gen != gen) {
      s.plan_breaker = &brk.of(s.plan.variant_id);
      s.plan_breaker_gen = gen;
    }
    if (!s.plan_breaker->allow()) {
      static obs::Counter& c_reroute = obs::counter("engine.tune.breaker_reroute");
      c_reroute.add(1);
      cached = false;  // resolve below; tune::resolve substitutes the chain
    }
  }

  // A breaker-substituted resolution is deliberately NOT scratch-cached:
  // the substitute plan lasts exactly one pricing, so the next call
  // re-consults the breaker (whose half-open probes route recovery).
  tune::DispatchPlan substituted{};
  const tune::DispatchPlan* plan = &s.plan;
  if (cached) {
    static obs::Counter& c_hit = obs::counter("engine.tune.hit");
    c_hit.add(1);
  } else {
    const tune::TuneKey key = tune::key_for(req, family, threads);
    tune::Resolution r = tune::resolve(eng, req, key);
    if (!r.plan.valid()) {
      out.error = robust::Status::not_found(
          "auto dispatch found no runnable variant for family '" + std::string(family) +
          "' on this workload (layout " + std::string(core::to_string(req.portfolio.layout)) +
          ")");
      return out;
    }
    if (r.substituted) {
      substituted = std::move(r.plan);
      plan = &substituted;
    } else {
      s.plan = std::move(r.plan);
      s.has_plan = true;
      s.plan_src = src;
      s.plan_n = req.portfolio.size();
      s.plan_layout = req.portfolio.layout;
      s.plan_threads = threads;
      s.plan_steps = req.steps;
      s.plan_spy = req.steps_per_year;
      s.plan_npath = req.npath;
      s.plan_bridge = req.bridge_depth;
      s.plan_cn = req.cn_num_prices;
      s.plan_breaker = nullptr;  // re-resolve against the new winner
    }
  }

  out.v = Registry::instance().find(plan->variant_id);
  if (out.v == nullptr) {
    // The registry changed under a cached plan (tests that re-register);
    // drop the stale plan so the next call re-resolves.
    s.has_plan = false;
    out.error = robust::Status::not_found("resolved plan names unknown variant '" +
                                          plan->variant_id + "'");
    return out;
  }
  out.tuned = true;
  out.chunks_per_thread = plan->chunks_per_thread;
  out.tasks = plan->tasks;
  return out;
}

}  // namespace finbench::engine
