// finbench/engine/engine.hpp
//
// The batched pricing engine: looks the requested variant up in the
// registry, partitions the workload into chunks and executes them on a
// persistent thread pool with dynamic chunk self-scheduling. Specs-layout
// portfolios get cost-model-weighted chunks. Black–Scholes batches get
// cache-sized chunks, each of which is priced, sanitized, guarded and
// repaired while it sits in L2; a convertible layout mismatch (e.g. an
// AOS portfolio priced by an SOA variant) is *negotiated* per chunk
// through a tile in the variant's layout — inputs copied in, outputs
// copied back, inside the timed region, with the cost reported in
// PricingResult::convert_seconds/convert_bytes. Every variant prices a
// chunk through its run_range adapter — specs values, Brownian paths,
// blocked lattices and Black–Scholes tiles alike — and a batch that is
// one chunk (a quote, a one-option book) runs inline on the caller.
//
// Steady state is allocation-free: re-pricing the same request through
// the two-argument price() overload performs zero heap allocations per
// repetition — conversion buffers live in the request arena, chunk bounds
// and result buffers are cached in the request Scratch, and the chunk
// closure fits std::function's small-buffer optimization
// (tests/test_engine_alloc.cpp proves this with a counting operator new).
//
// Execution is reported through finbench::obs: chunk spans on the trace,
// "engine.requests" / "engine.items" / "engine.layout_converts" /
// "engine.convert.bytes" counters, the "engine.convert.seconds" stat, and
// — when parallel timing is enabled — per-participant CPU-time imbalance
// under "parallel.engine.dynamic.*".

#pragma once

#include <span>

#include "finbench/engine/group.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/request.hpp"
#include "finbench/engine/thread_pool.hpp"

namespace finbench::engine {

class Engine {
 public:
  // pool == nullptr: use ThreadPool::shared().
  explicit Engine(ThreadPool* pool = nullptr);

  // Price one request. Never throws for workload, registry or kernel
  // errors: they come back on result.status. A kernel exception is
  // contained to its chunk, which walks the variant's fallback chain
  // (when req.fallback) and otherwise reports kFailed with NaN outputs.
  PricingResult price(const PricingRequest& req) const;

  // Re-entrant form: prices into an existing result, reusing its buffers.
  // Repeat loops (benchmarks, servers) use this overload — after the first
  // call, re-pricing the same request is heap-allocation-free.
  void price(const PricingRequest& req, PricingResult& res) const;

  // Multi-request entry point (finbench/engine/group.hpp): fuse the group
  // into one arena-backed portfolio, price it in a single execution, and
  // scatter per-member outputs/statuses back. Members must be pairwise
  // fusable with group[0] — a member that is not gets priced individually
  // rather than silently mis-fused. Single-member groups skip the fuse.
  // `scratch` is caller-owned and reused; steady-state same-shaped groups
  // are heap-allocation-free.
  void price_group(std::span<const GroupJob> group, GroupScratch& scratch) const;

  // True when `a` and `b` may share one fused batch: same variant, same
  // fusable layout, matching batch scalars and accuracy/robustness knobs,
  // no active fault plan, and a deterministic (non-statistical) kernel.
  // Auto-intent requests ("blackscholes.auto") compare by *resolved plan*:
  // both resolve through the tuner at this engine's pool size — the size
  // the group will be priced at — and fuse only when they land on the
  // same concrete variant, chunk granularity and task mode. Concrete ids
  // must also ask for the same task mode.
  bool fusable(const PricingRequest& a, const PricingRequest& b) const;

  // The kernel-only batch path (what VariantInfo::run_batch runs on
  // Engine::shared()): v's prepare hook, then its run_range over
  // P x chunks_per_thread ranges of the view (in the pricing order the
  // hook chose, outputs back in caller order), on this
  // engine's pool — no sanitize, guard, fallback or telemetry, so no
  // cache-sized Black–Scholes chunks either. Outputs are those of price()
  // on a clean workload, bit for bit, on any pool. A kernel exception
  // propagates.
  void run_batch(const VariantInfo& v, const PricingRequest& req,
                 const core::PortfolioView& view, PricingResult& res) const;

  // Participants the engine executes with (pool workers + caller). The
  // tuner keys plans on this: a plan raced at one pool size does not
  // dispatch another.
  int pool_size() const;

  // Process-wide engine over ThreadPool::shared().
  static Engine& shared();

 private:
  ThreadPool* pool_;
};

}  // namespace finbench::engine
