// finbench/tune/plan.hpp
//
// DispatchPlan — what a TuneKey resolves to: the concrete registry variant
// to run plus the schedule and chunk granularity it should run under, with
// the measured throughput that justified the choice. RaceReport is the
// full evidence trail of one race (every candidate configuration and its
// rate), kept alongside the winner so `pricectl --explain` can answer
// "why this plan" even in a different process, from the cache file alone.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "finbench/arch/parallel.hpp"
#include "finbench/tune/key.hpp"

namespace finbench::tune {

constexpr std::string_view to_string(arch::Schedule s) {
  return s == arch::Schedule::kStatic ? "static" : "dynamic";
}

inline bool schedule_from_string(std::string_view s, arch::Schedule& out) {
  if (s == "static") {
    out = arch::Schedule::kStatic;
    return true;
  }
  if (s == "dynamic") {
    out = arch::Schedule::kDynamic;
    return true;
  }
  return false;
}

struct DispatchPlan {
  std::string variant_id;  // concrete registry id; empty = no plan
  arch::Schedule schedule = arch::Schedule::kDynamic;
  int chunks_per_thread = 8;
  bool tasks = false;  // intra-option fork-join tasks enabled

  // Race-time evidence: best measured throughput of this configuration and
  // the parallel.engine.<schedule>.imbalance mean observed while it ran
  // (0 = unmeasured / a one-chunk run).
  double items_per_sec = 0.0;
  double imbalance = 0.0;

  bool valid() const { return !variant_id.empty(); }
};

// One raced configuration: a (variant, schedule, chunks_per_thread) triple
// and what it measured. ok == false candidates carry the failure in `note`
// (e.g. a variant whose status came back not-ok on this workload).
struct CandidateResult {
  std::string id;
  arch::Schedule schedule = arch::Schedule::kDynamic;
  int chunks_per_thread = 8;
  bool tasks = false;  // raced with intra-option tasks enabled
  double items_per_sec = 0.0;
  double imbalance = 0.0;
  bool ok = false;
  std::string note;
};

struct RaceReport {
  TuneKey key;
  DispatchPlan winner;  // valid() false when no candidate priced cleanly
  std::vector<CandidateResult> candidates;
  double race_seconds = 0.0;

  // Unconstrained best rate across every configuration (ignoring pins).
  // When the caller pinned schedule/chunks and the pinned best loses to
  // this by more than 10%, pinned_losing is set and the engine bumps the
  // engine.tune.pinned_losing counter — the one-time "your pin costs you"
  // warning.
  double best_items_per_sec = 0.0;
  bool pinned_losing = false;

  // Candidates excluded because their circuit breaker was open when the
  // race ran (finbench/resilience). A race with exclusions produced a
  // degraded-era winner: resolve() uses it for the current pricing but
  // does not persist it, so the healthy-era field re-races later.
  // Transient — never serialized into the plan cache.
  int breaker_excluded = 0;
};

}  // namespace finbench::tune
