// finbench/tune/tuner.hpp
//
// The empirical benchmarker behind `auto` dispatch: given a request whose
// kernel id names an intent ("blackscholes.auto"), race the registry's
// candidate variants — every variant of the family whose layout the
// workload matches or can negotiate to — through the real Engine::price
// path, then race the chunks_per_thread grid on the winning variant
// (chunked kSpecs execution only) and the intra-option task mode (binomial,
// CN and MC on a pool of more than one), and return the evidence as a
// RaceReport. resolve() is the cache-through entry the engine calls: hit
// the PlanCache, else race once and persist.
//
// Design points (docs/autotuning.md):
//
//  - Candidates race through Engine::price on a *copy* of the live request
//    (fresh Scratch, faults/deadline cleared), so what is measured is the
//    real dispatch path: negotiation + writeback, sanitization, chunking.
//    Losing candidates may scribble the workload's output arrays; the
//    winner's subsequent real run overwrites every output, so the caller
//    never observes race side effects.
//  - Timing is warm-up + best-of-reps of PricingResult::seconds — the same
//    discipline as bench::measure_variant, without leaving the engine.
//  - Load-imbalance telemetry (parallel.engine.dynamic.imbalance) is
//    sampled per configuration and used as the tie-breaker between
//    configurations within 3% of the best rate — and recorded on the plan
//    for --explain.
//  - The request's own chunks_per_thread and task mode play no part: an
//    auto id runs whatever the race picks.
//  - The request's deadline does not govern the race: resolution is a
//    once-per-key warm-up cost, not part of the priced run.

#pragma once

#include <string_view>

#include "finbench/engine/engine.hpp"
#include "finbench/tune/cache.hpp"
#include "finbench/tune/key.hpp"
#include "finbench/tune/plan.hpp"

namespace finbench::tune {

// The TuneKey of `req` under canonical `family`, raced at `threads` pool
// size. Scans kSpecs workloads for American exercise.
TuneKey key_for(const engine::PricingRequest& req, std::string_view family, int threads);

struct RaceOptions {
  int reps = 2;           // timed repetitions per configuration (plus one warm-up)
  bool imbalance = true;  // sample parallel imbalance during the race
};

// Race every candidate configuration for `key` on the live workload of
// `req`. Never throws; a key with no runnable candidate returns a report
// whose winner is !valid().
RaceReport race(const engine::Engine& eng, const engine::PricingRequest& req,
                const TuneKey& key, const RaceOptions& opt = {});

struct Resolution {
  DispatchPlan plan;   // valid() false: no runnable candidate
  bool hit = false;    // served from PlanCache::instance()
  bool raced = false;  // a race ran (and its winner was persisted)
  // The plan's variant was swapped for a fallback-chain link because the
  // winner's circuit breaker is open (finbench/resilience). A substituted
  // plan is one-shot: it is never persisted and callers must not cache it
  // — the next resolution re-consults the breaker, which is how half-open
  // probes reach the real winner again.
  bool substituted = false;
};

// Cache-through resolution: PlanCache hit (validated against the registry
// — a plan naming a variant this build does not ship re-races instead of
// mis-dispatching), else race + put. Bumps engine.tune.{hit,miss,race}.
// A hit whose winner is breaker-rejected substitutes the first allowed
// link of the winner's fallback chain (substituted = true, not
// persisted); an exhausted chain fails open to the winner.
Resolution resolve(const engine::Engine& eng, const engine::PricingRequest& req,
                   const TuneKey& key);

}  // namespace finbench::tune
