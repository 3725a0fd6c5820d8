// finbench/engine/request.hpp
//
// The uniform request/result vocabulary of the pricing engine: one
// PricingRequest describes a workload — a single layout-tagged
// core::PortfolioView — plus the accuracy knobs the kernels consume and
// how the engine may schedule the work; one PricingResult carries the
// per-item outputs, timing, and the layout-negotiation cost. Every kernel
// variant in the registry (finbench/engine/registry.hpp) prices through
// this interface.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "finbench/arch/parallel.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/resilience/brownout.hpp"
#include "finbench/resilience/retry.hpp"
#include "finbench/robust/deadline.hpp"
#include "finbench/robust/fault.hpp"
#include "finbench/robust/guards.hpp"
#include "finbench/robust/sanitize.hpp"
#include "finbench/robust/status.hpp"

namespace finbench::engine {

// Per-request derived data the adapters cache across repetitions (normal
// streams, lane-blocked layouts, result buffers, the layout-negotiation
// arena). Created lazily on first use; defined in src/engine/. A request
// object must not be priced from two threads at once (the engine itself
// parallelizes *inside* one request).
struct Scratch;

// Intra-option task parallelism (engine/task_group.hpp): whether expensive
// options may decompose into nested fork-join tasks inside their chunk.
// For a concrete kernel id, kAuto means "on when the pool has more than
// one participant"; an auto id runs the task mode its plan raced to.
enum class TaskMode : int { kAuto = -1, kOff = 0, kOn = 1 };

struct PricingRequest {
  // Registry id of the variant to run, e.g. "bs.intermediate.auto".
  std::string kernel_id;

  // --- Workload: one layout-tagged view (core::view_of / core::Portfolio).
  // When the view's layout differs from the variant's required layout and
  // the pair is core::convertible, the engine negotiates: every pricing
  // copies each chunk's inputs into a tile in the variant's layout, prices
  // it there and copies the outputs back, and reports what that cost in
  // the result. -----------------------------------------------------------
  core::PortfolioView portfolio{};

  // --- Accuracy knobs ------------------------------------------------------
  int steps = 1024;          // binomial lattice depth / CN time steps
  int steps_per_year = 0;    // > 0: per-option binomial depth = T * this
                             // (heterogeneous batches; SIMD variants price
                             // them in depth packs)
  std::size_t npath = 16384; // Monte Carlo paths per option
  int bridge_depth = 6;      // Brownian bridge depth (2^D steps)
  int cn_num_prices = 257;   // CN spatial grid points
  std::uint64_t seed = 42;   // RNG seed (deterministic workloads)

  // --- Scheduling (Engine::price, and run_batch's ranges; run_batch keeps
  // tasks off) ---------------------------------------------------------------
  // A concrete kernel_id runs these verbatim. An auto kernel_id
  // ("<family>.auto", e.g. "blackscholes.auto") ignores them: it runs the
  // resolved DispatchPlan's variant, chunks_per_thread and task mode.
  int chunks_per_thread = 8;  // chunks per participant (ticket-claimed)
  TaskMode tasks = TaskMode::kAuto;  // intra-option fork-join tasks

  // Single-valued (arch::Schedule has one enumerator) and read nowhere in
  // the library; kept only because perfbench/src/books.cpp assigns
  // DispatchPlan::schedule to it.
  arch::Schedule schedule = arch::Schedule::kDynamic;

  // --- Robustness (finbench/robust; docs/robustness.md) --------------------
  // Input sanitization policy. The default masks faulty options out
  // (their outputs come back as quiet NaN with a per-option fault mask)
  // instead of letting one poisoned record take down the batch; kOff is
  // the raw-benchmark mode with the exact pre-robustness behavior.
  robust::SanitizePolicy sanitize = robust::SanitizePolicy::kSkip;

  // Post-kernel output guardrails; failing chunks are re-priced through
  // the variant's fallback chain when `fallback` is set.
  robust::GuardPolicy guard{};
  bool fallback = true;

  // Cooperative deadline, polled at chunk boundaries: > 0 arms a
  // per-request deadline of that many seconds; `cancel` (optional,
  // caller-owned, must outlive the call) lets a client revoke the request
  // from another thread. Either trigger yields partial results with
  // per-chunk status rather than an abort.
  double deadline_seconds = 0.0;
  const robust::CancelToken* cancel = nullptr;

  // Deterministic engine-side fault injection (tests, CI smoke runs):
  // corrupt outputs, throw in chunks, slow chunks down. Input poisoning
  // (FaultPlan::poison) is applied by whoever owns the workload — see
  // robust::inject_input_faults. Never active during fallback repricing,
  // and never scored by the circuit breakers (a request-level injected
  // fault is test machinery, not variant health).
  robust::FaultPlan faults{};

  // --- Resilience (finbench/resilience; docs/resilience.md) ----------------
  // Serve-layer retry opt-in: max_attempts > 1 lets the dispatcher retry
  // kKernelError / kResourceExhausted outcomes with decorrelated-jitter
  // backoff, subject to the server's global retry budget. Ignored by a
  // direct Engine::price call (the engine itself never retries).
  resilience::RetryPolicy retry{};

  // Brownout opt-in: how far the serve dispatcher may degrade this
  // request's accuracy knobs under overload, and its shedding priority.
  // The defaults forbid any degradation.
  resilience::DegradePolicy degrade{};

  // Adapter-owned cache; reused across repeated pricings of this request.
  mutable std::shared_ptr<Scratch> scratch;
};

// Per-chunk outcome of one engine execution (PricingResult::chunk_status).
// kNotRun chunks were never started — after a deadline expiry or a
// non-recoverable failure they are what distinguishes "missing" from
// "wrong".
enum class ChunkStatus : std::uint8_t {
  kNotRun = 0,
  kOk = 1,        // priced by the requested variant, guard clean
  kDegraded = 2,  // quarantined and re-priced through the fallback chain
  kFailed = 3,    // failed and no fallback link could repair it
  kDeadline = 4,  // skipped because the deadline/cancel token expired
};

constexpr std::string_view to_string(ChunkStatus s) {
  switch (s) {
    case ChunkStatus::kNotRun: return "not_run";
    case ChunkStatus::kOk: return "ok";
    case ChunkStatus::kDegraded: return "degraded";
    case ChunkStatus::kFailed: return "failed";
    case ChunkStatus::kDeadline: return "deadline";
  }
  return "?";
}

struct PricingResult {
  std::string kernel_id;

  // Concrete variant the request resolved to. Equal to kernel_id for
  // explicit dispatch; under auto dispatch it is the plan's variant id and
  // `tuned` is true (kernel_id keeps the caller's intent id).
  std::string resolved_id;
  bool tuned = false;

  // Outcome of the pricing (finbench/robust): status.ok() is true for
  // kOk *and* kDegraded; anything else carries a code and a message.
  robust::Status status{};

  // Process-unique id of this engine execution, stamped into every
  // flight-recorder record the run produced — the join key between a
  // PricingResult and the `records` of a flight dump.
  std::uint64_t request_id = 0;

  std::size_t items = 0;   // options priced / paths constructed
  double seconds = 0.0;    // wall time inside the engine, including the
                           // negotiated-layout conversion and writeback
                           // (0 for run_batch dispatched directly by
                           // benchmarks)

  // Layout negotiation: the layout the kernel actually executed on, and
  // what converting this call's chunks into it and their outputs back
  // cost, summed over chunks (0 / 0 when the request already matched).
  core::Layout layout = core::Layout::kSpecs;
  double convert_seconds = 0.0;
  std::size_t convert_bytes = 0;

  // Per-item outputs. Black–Scholes variants write prices into the
  // request's portfolio arrays instead (copying millions of outputs would
  // distort the bandwidth-bound kernel), leaving `values` empty.
  std::vector<double> values;
  std::vector<double> std_errors;  // Monte Carlo variants only

  // --- Robustness detail (empty / zero on a clean, un-degraded run) --------
  // Sanitizer verdict per option (robust::OptionFault bits); empty when
  // every input was clean. An option with kFaultSkipped set has quiet NaN
  // outputs by design.
  std::vector<std::uint8_t> option_faults;

  // Outcome per engine chunk, aligned with the run's chunk partition (a
  // batch too small to split, such as one option, is one chunk [0, n)).
  // Partial results after a deadline:
  // kDeadline/kNotRun chunks hold unpriced items (NaN).
  std::vector<std::uint8_t> chunk_status;  // ChunkStatus values

  std::size_t options_clamped = 0;   // sanitizer repaired in place / in copy
  std::size_t options_skipped = 0;   // sanitizer masked out (NaN outputs)
  std::size_t options_repaired = 0;  // guard repaired via scalar reference
  std::size_t chunks_degraded = 0;   // re-priced through the fallback chain
  std::size_t chunks_failed = 0;     // unrecoverable
  std::size_t chunks_deadline = 0;   // skipped at deadline/cancellation

  // --- Resilience detail (serve-layer; zero on a direct engine call) -------
  // Brownout ladder level the dispatcher applied to this request (0 =
  // none) and the accuracy knobs that actually executed when degraded
  // (0 = as requested). A browned-out result is at least kDegraded.
  int brownout_level = 0;
  std::size_t npath_applied = 0;
  int steps_applied = 0;
  // Dispatch attempts the serve retry layer made (1 = no retries).
  int attempts = 1;

  // Clear every field for a new execution under `id`, keeping buffer
  // capacity, so re-pricing into the same result does not allocate.
  void reset(const std::string& id) {
    kernel_id = id;
    resolved_id.clear();
    tuned = false;
    status.reset();
    request_id = 0;
    items = 0;
    seconds = 0.0;
    layout = core::Layout::kSpecs;
    convert_seconds = 0.0;
    convert_bytes = 0;
    values.clear();
    std_errors.clear();
    option_faults.clear();
    chunk_status.clear();
    options_clamped = options_skipped = options_repaired = 0;
    chunks_degraded = chunks_failed = chunks_deadline = 0;
    brownout_level = 0;
    npath_applied = 0;
    steps_applied = 0;
    attempts = 1;
  }

  double items_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
  }
};

}  // namespace finbench::engine
