// finbench/tune/plan.hpp
//
// DispatchPlan — what a TuneKey resolves to: the concrete registry variant
// to run plus the chunk granularity and task mode it should run under,
// with the measured throughput that justified the choice. RaceReport is
// the full evidence trail of one race (every candidate configuration and
// its rate), kept alongside the winner so `pricectl --explain` can answer
// "why this plan" even in a different process, from the cache file alone.

#pragma once

#include <string>
#include <vector>

#include "finbench/arch/parallel.hpp"
#include "finbench/tune/key.hpp"

namespace finbench::tune {

struct DispatchPlan {
  std::string variant_id;  // concrete registry id; empty = no plan
  int chunks_per_thread = 8;
  bool tasks = false;  // intra-option fork-join tasks enabled

  // Single-valued (arch::Schedule has one enumerator), never serialized and
  // read nowhere in the library; kept only because perfbench/src/books.cpp
  // copies it into PricingRequest::schedule.
  arch::Schedule schedule = arch::Schedule::kDynamic;

  // Race-time evidence: best measured throughput of this configuration and
  // the parallel.engine.dynamic.imbalance mean observed while it ran
  // (0 = unmeasured / a one-chunk run).
  double items_per_sec = 0.0;
  double imbalance = 0.0;

  bool valid() const { return !variant_id.empty(); }
};

// One raced configuration: a (variant, chunks_per_thread, tasks) triple
// and what it measured. ok == false candidates carry the failure in `note`
// (e.g. a variant whose status came back not-ok on this workload).
struct CandidateResult {
  std::string id;
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

  // Candidates excluded because their circuit breaker was open when the
  // race ran (finbench/resilience). A race with exclusions produced a
  // degraded-era winner: resolve() uses it for the current pricing but
  // does not persist it, so the healthy-era field re-races later.
  // Transient — never serialized into the plan cache.
  int breaker_excluded = 0;
};

}  // namespace finbench::tune
