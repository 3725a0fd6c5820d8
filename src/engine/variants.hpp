// Internal to src/engine: the Scratch cache definition and the per-family
// registration functions the Registry constructor calls. Not installed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/scratch_pool.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/request.hpp"
#include "finbench/kernels/brownian.hpp"
#include "finbench/kernels/montecarlo.hpp"
#include "finbench/obs/flight_recorder.hpp"
#include "finbench/obs/histogram.hpp"
#include "finbench/resilience/breaker.hpp"
#include "finbench/tune/plan.hpp"

namespace finbench::engine {

class ThreadPool;

// Request-lifetime derived data, built on the first pricing of a request
// and reused across repetitions (benchmark loops re-price the same request
// many times; regenerating normal streams inside the timed region would
// distort the stream-RNG kernels, whose whole point is that the normals
// are already in memory). Everything here exists so that a steady-state
// repetition of the same request performs zero heap allocations
// (tests/test_engine_alloc.cpp).
struct Scratch {
  // Monte Carlo stream flavor: one shared normal array of npath draws.
  arch::AlignedVector<double> z;

  // Monte Carlo result buffer: ranges write disjoint [begin, end) slices
  // of it (pre-sized by the variant's prepare hook so no range ever
  // allocates).
  std::vector<kernels::mc::McResult> mc;

  // Brownian bridge: schedule, per-path normals, and the lane-blocked
  // reordering for the SIMD variants (one width per request).
  std::unique_ptr<kernels::brownian::BridgeSchedule> sched;
  arch::AlignedVector<double> bb_z;
  arch::AlignedVector<double> bb_z_blocked;
  int bb_blocked_width = 0;

  // --- Chunk executor (engine-owned) ---------------------------------------
  // Per-chunk tallies of the last pricing, merged serially by the
  // post-pass: a Black–Scholes chunk's sanitizer verdict (mask indexed
  // from the chunk start), its guard repairs and its negotiation traffic
  // (all zero for other chunks). On a layout mismatch each participant
  // prices through its own chunk-sized tile in the variant's layout,
  // re-carved from `arena` every pricing (reset() keeps the blocks, so
  // steady state allocates nothing).
  struct ChunkTally {
    robust::SanitizeReport san;
    std::size_t repaired = 0;
    std::size_t convert_bytes = 0;
    double convert_seconds = 0.0;

    void reset() {
      san.reset();
      repaired = convert_bytes = 0;
      convert_seconds = 0.0;
    }
  };
  std::vector<ChunkTally> tallies;
  core::Arena arena;
  std::vector<core::PortfolioView> tiles;

  // --- Chunk-partition cache (engine-owned) --------------------------------
  // chunk_bounds output + per-item cost buffer, rebuilt only when the
  // (partition kind, alignment, n, nparts) key changes. The kind
  // matters: one request (serve's fused group) prices Black–Scholes and
  // specs groups of equal size in turn, and their partitions differ.
  std::vector<std::size_t> bounds;
  std::vector<double> item_cost;
  std::size_t bounds_n = 0;
  int bounds_nparts = -1;
  bool bounds_cache_sized = false;
  std::size_t bounds_align = 0;

  // --- Kernel scratch pools (engine-owned) ---------------------------------
  // Kernel temporaries — binomial lattices, Monte Carlo normal chunks, the
  // VML variant's d1/d2/xexp/qlog arrays, the CN pack workspace — lease
  // one slot per range call from these pools (core::ScratchBuf) instead of
  // allocating, so steady-state repetitions of a request never touch the
  // heap. Carved from kernel_arena, which is deliberately separate from
  // the negotiation `arena` above: every negotiated pricing resets that
  // arena, while pool slices must stay valid for the request's lifetime.
  // The prepare hooks size them (scratch_slots) before any range runs;
  // reserve() is idempotent, so repetitions settle into zero work.
  core::Arena kernel_arena;
  core::ScratchPool lattice_pool;  // binomial: (steps+1) x lane-width doubles
  core::ScratchPool rng_pool;      // mc computed: kRngChunk doubles
  core::ScratchPool vml_pool;      // bs advanced_vml: 4 x kVmlChunk doubles
  core::ScratchPool pack_pool;     // cn direct_packed: one pack workspace

  // Binomial depth-packed chunks: each chunk sorts the depth keys of its
  // own options in depth_order[begin, end) (kernels::binomial::depth_key),
  // sized once per request by the prepare hook.
  std::vector<std::uint64_t> depth_order;

  // --- Robustness (engine-owned; finbench/robust) --------------------------
  // Sanitizer verdict of the last pricing (reset() keeps mask capacity)
  // and, for kSpecs workloads with faults, the policy-applied copy the
  // kernels actually price (the caller's specs are immutable through the
  // view, and e.g. binomial's per-option step count would hit UB casting
  // a NaN expiry). The request's cancel token lives here so repeated
  // pricings re-arm it without touching the heap.
  robust::SanitizeReport sanitize_report;
  std::vector<core::OptionSpec> sanitized_specs;
  robust::CancelToken token;

  // --- Observability (engine-owned; finbench/obs) --------------------------
  // Labeled latency histograms and the flight-recorder handle, resolved
  // once per kernel id: the registry lookup builds the label string
  // (kernel + layout) and takes the registry mutex, so the hot path must
  // not repeat it per repetition — a steady-state pricing records through
  // these cached pointers without allocating.
  obs::Histogram* hist_request = nullptr;  // engine.request.seconds{...}
  obs::Histogram* hist_chunk = nullptr;    // engine.chunk.seconds{...}
  obs::FlightRecorder* flight = nullptr;
  std::string hist_kernel_id;  // kernel id the cached handles belong to

  // --- Resilience (engine-owned; finbench/resilience) ----------------------
  // The executed variant's circuit breaker, cached with the histogram
  // handles (same invalidation key) so outcome recording is one pointer
  // call per pricing. breaker_gen guards against BreakerRegistry::reset()
  // invalidating the handle between pricings.
  resilience::Breaker* breaker = nullptr;
  std::uint64_t breaker_gen = 0;
  // Breaker of the scratch-cached auto plan's winner (dispatch.cpp): the
  // cached-plan fast path re-checks allow() through this handle each
  // pricing so a trip re-routes even steady-state request loops.
  resilience::Breaker* plan_breaker = nullptr;
  std::uint64_t plan_breaker_gen = 0;

  // --- Auto-dispatch plan cache (engine-owned; finbench/tune) --------------
  // The DispatchPlan an auto-intent request resolved to, cached so a
  // steady-state repetition never re-derives the TuneKey (which allocates
  // a family string) or takes the PlanCache mutex. The key mirrors every
  // TuneKey ingredient; any change invalidates the cached plan and
  // resolution goes back through tune::resolve.
  tune::DispatchPlan plan{};
  bool has_plan = false;
  const void* plan_src = nullptr;  // workload data pointer
  std::size_t plan_n = 0;
  core::Layout plan_layout = core::Layout::kSpecs;
  int plan_threads = 0;
  int plan_steps = 0;
  int plan_spy = 0;
  std::size_t plan_npath = 0;
  int plan_bridge = 0;
  int plan_cn = 0;

  // --- Executing pool (engine-owned) --------------------------------------
  // The pool running this request's ranges, stamped before prepare by
  // Engine::price and Engine::run_batch (the engine's pool): the
  // prepare hooks size the scratch pools from its participants. With
  // tasks_on, variant run_range adapters may decompose expensive options
  // into nested fork-join tasks on it (engine/task_group.hpp); run_batch
  // keeps tasks off.
  ThreadPool* pool = nullptr;
  bool tasks_on = false;
};

// Ensure req.scratch exists; returns it.
Scratch& scratch_of(const PricingRequest& req);

// Identity pointer of a view's workload data — the cache-invalidation key
// for scratch-cached derived state (resolved plans).
inline const void* workload_data_key(const core::PortfolioView& view) {
  switch (view.layout) {
    case core::Layout::kSpecs: return view.specs.data();
    case core::Layout::kBsAos: return view.aos.options.data();
    case core::Layout::kBsSoa: return view.soa.spot.data();
    case core::Layout::kBsSoaF: return view.sp.spot.data();
    case core::Layout::kBsBlocked: return view.blocked.data.data();
    case core::Layout::kPaths: return nullptr;
  }
  return nullptr;
}

class Engine;

// Outcome of resolving a request's kernel_id to a concrete variant plus
// its chunk granularity and task mode — the first step of
// Engine::price/price_group. A concrete id runs the request's values
// verbatim (tuned = false); an auto-intent id ("<family>.auto") resolves
// through tune::resolve and runs the plan's variant, chunks_per_thread and
// task mode, whatever the request carries. `error` reports an unknown id /
// family / no runnable candidate; v is null in that case.
struct ResolvedDispatch {
  const VariantInfo* v = nullptr;
  int chunks_per_thread = 8;
  bool tasks = false;  // effective intra-option task mode
  bool tuned = false;
  robust::Status error{};
};

// Defined in src/engine/dispatch.cpp. Caches the resolution in the
// request's Scratch so steady-state repetitions skip the tuner entirely.
ResolvedDispatch resolve_dispatch(const Engine& eng, const PricingRequest& req);

// Slot count for the kernel scratch pools of a request about to run on
// s.pool: two per participant — its range call's lease, and a task's it
// may take while it helps join its own fork-join tasks. One without a
// pool (a fallback link's fresh Scratch runs on the failing chunk's
// participant alone).
int scratch_slots(const Scratch& s);

void register_blackscholes(Registry& r);
void register_binomial(Registry& r);
void register_montecarlo(Registry& r);
void register_brownian(Registry& r);
void register_cranknicolson(Registry& r);

}  // namespace finbench::engine
