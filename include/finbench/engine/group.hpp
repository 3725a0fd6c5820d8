// finbench/engine/group.hpp
//
// The engine's multi-request entry point: N compatible PricingRequests
// fused into one arena-backed portfolio, priced in a single engine
// execution, with per-request outputs and statuses scattered back. This
// is what serve::Server's coalescer rides on — layout negotiation, chunk
// partitioning, and ScratchPool reservation amortize across the group
// instead of being paid once per small request.
//
// Fusion contract (Engine::fusable): two requests fuse when they name the
// same kernel variant, carry the same workload layout (one of kSpecs,
// kBsAos, kBsSoa, kBsSoaF — lane-blocked AoSoA members are priced
// individually, their per-request tail padding makes concatenation
// non-trivial), agree on every accuracy and robustness knob, share the
// batch scalars (rate/vol/dividend for Black–Scholes layouts), carry no
// active fault plan, and the variant is deterministic. Monte Carlo never
// fuses: its per-option RNG substreams are keyed by batch index, so
// coalescing would change the answer a request gets depending on who it
// shares a batch with.
//
// Determinism: for the layouts that do fuse, every shipped kernel is
// element-wise across options (SIMD lanes are independent, and a ragged
// tail runs the vector code on padded lanes rather than a scalar path),
// so a member's prices are bitwise identical whether it is priced alone
// or inside a fused batch, whatever the member sizes —
// tests/test_engine.cpp (every fusable variant) and tests/test_serve.cpp
// assert this.
//
// Degradation is attributed per member: the fused run executes with the
// engine's Black–Scholes output guard deferred, and price_group re-guards
// each member's range of the fused batch with the member's own policy —
// a member whose outputs trip the guardrail is repaired (scalar closed
// form) and reported kDegraded without touching its neighbours' statuses
// or bits. Sanitizer verdicts scatter the same way through the per-option
// fault mask, and outcomes through the fused chunk statuses: a deadline
// or an unrecoverable chunk fails only the members whose options it
// holds (their priced values, and NaN for the rest, still land in their
// outputs). Under a pricing order (a mixed-depth binomial pack plan) a
// chunk holds plan positions, mapped to members through the order.
//
// GroupScratch is caller-owned and reused across calls; after warm-up, a
// steady state of same-shaped groups prices with zero heap allocations
// (the fused portfolio lives in a block-reusing Arena, the fused request
// keeps its engine Scratch, and all scatter buffers retain capacity).

#pragma once

#include <cstddef>
#include <vector>

#include "finbench/core/portfolio.hpp"
#include "finbench/engine/request.hpp"
#include "finbench/robust/deadline.hpp"

namespace finbench::engine {

// One member of a fused group: the request to price and where its
// per-request outcome lands. Outputs go to the member's own portfolio
// arrays (BS layouts) or result values (kSpecs), exactly as in
// Engine::price.
struct GroupJob {
  const PricingRequest* req = nullptr;
  PricingResult* res = nullptr;
};

// Caller-owned state reused across price_group calls. The arena holds the
// fused portfolio (reset keeps its blocks); `fused` keeps its engine
// Scratch so negotiation/chunk/pool buffers persist. `deadline_seconds`
// and `cancel`, when set, override the group deadline (otherwise the
// minimum positive member deadline applies); serve::Server uses this to
// arm the remaining budget of the most urgent member.
struct GroupScratch {
  core::Arena arena;
  PricingRequest fused;
  PricingResult fused_res;

  // Group-level deadline override (0 = derive from members).
  double deadline_seconds = 0.0;
  const robust::CancelToken* cancel = nullptr;

  // Internal scatter bookkeeping (kept for capacity reuse): each member's
  // offset in the fused batch, and the last fused chunk charged to it.
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> last_chunk;
};

}  // namespace finbench::engine
