#include "finbench/engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "finbench/arch/timing.hpp"
#include "finbench/core/analytic.hpp"
#include "finbench/obs/flight_recorder.hpp"
#include "finbench/obs/histogram.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/trace.hpp"
#include "finbench/resilience/breaker.hpp"
#include "finbench/resilience/chaos.hpp"
#include "finbench/robust/guards.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

constexpr double kQuietNan = std::numeric_limits<double>::quiet_NaN();

// SIMD-across-options kernels group lanes by position within the span they
// are handed: an interior chunk boundary that is not a multiple of the
// vector width would regroup lanes and perturb results in the last ulp.
// Keeping boundaries 8-aligned (a multiple of every width we ship) makes
// chunked execution bitwise identical to the whole-batch call.
constexpr std::size_t kChunkAlign = 8;

// Black–Scholes chunks are sized for the cache, not by a cost model: every
// option costs the same, and the point of chunking is that a chunk's
// sanitize scan, kernel, guard and (negotiated) writeback all hit L2. The
// cap of 16K options is 640 KB of AOS records, a tile in the kernel layout
// beside it still fits a 2 MB L2. The floor keeps small batches from being
// split finer than the per-chunk bookkeeping is worth: a batch of at most
// kBsMinChunk options is one chunk and runs inline on the caller.
// Boundaries are multiples of 64 options, a multiple of the widest lane
// tile (16 SP lanes), of the blocked layout's block (8) and of the blocked
// kernels' two-block unroll, so no interior option lands in a kernel's
// scalar tail and chunked results equal the whole-batch call bit for bit.
constexpr std::size_t kBsChunkAlign = 64;
constexpr std::size_t kBsMinChunk = 1024;
constexpr std::size_t kBsMaxChunk = 16384;

bool is_bs(Layout l) {
  return l == Layout::kBsAos || l == Layout::kBsSoa || l == Layout::kBsSoaF ||
         l == Layout::kBsBlocked;
}

// Contiguous chunk boundaries over [0, n). Black–Scholes batches get
// equal cache-sized chunks of ~n / nparts options (clamped to
// [kBsMinChunk, kBsMaxChunk]). Specs batches are cost-model-weighted for
// dynamic scheduling (each chunk carries ~total/K weight, so expensive
// long-dated options don't all land in one chunk), plain equal-count
// stripes for static (the classic partition the imbalance experiment
// compares against). Interior boundaries are aligned; duplicates are
// dropped, so every chunk is non-empty. The result is cached in the
// request Scratch — steady-state repetitions reuse it without touching
// the heap.
const std::vector<std::size_t>& chunk_bounds(const VariantInfo& v, const PricingRequest& req,
                                             const core::PortfolioView& view, std::size_t n,
                                             int nparts, arch::Schedule schedule) {
  Scratch& s = scratch_of(req);
  const int sched = static_cast<int>(schedule);
  const bool bs = is_bs(v.layout);
  if (s.bounds_n == n && s.bounds_nparts == nparts && s.bounds_sched == sched &&
      s.bounds_bs == bs && !s.bounds.empty()) {
    return s.bounds;
  }
  std::vector<std::size_t>& bounds = s.bounds;
  bounds.clear();
  bounds.push_back(0);
  std::size_t k = static_cast<std::size_t>(nparts);
  if (k > n) k = n;
  auto push_aligned = [&](std::size_t b) {
    b -= b % kChunkAlign;
    if (b > bounds.back() && b < n) bounds.push_back(b);
  };
  if (bs) {
    std::size_t per = (n + k - 1) / k;
    per = (per + kBsChunkAlign - 1) / kBsChunkAlign * kBsChunkAlign;
    per = std::clamp(per, kBsMinChunk, kBsMaxChunk);
    for (std::size_t b = per; b < n; b += per) bounds.push_back(b);
  } else if (v.item_cost && schedule == arch::Schedule::kDynamic && !view.specs.empty()) {
    std::vector<double>& cost = s.item_cost;
    cost.resize(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cost[i] = v.item_cost(view.specs[i], req);
      total += cost[i];
    }
    const double per_chunk = total / static_cast<double>(k);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += cost[i];
      if (acc >= per_chunk && bounds.size() < k) {
        push_aligned(i + 1);
        acc = 0.0;
      }
    }
  } else {
    for (std::size_t c = 1; c < k; ++c) push_aligned(c * n / k);
  }
  bounds.push_back(n);
  s.bounds_n = n;
  s.bounds_nparts = nparts;
  s.bounds_sched = sched;
  s.bounds_bs = bs;
  return bounds;
}

// --- Robustness helpers -----------------------------------------------------

// Next link of a variant's fallback chain: explicit fallback_id first,
// else the self-validation reference, else end-of-chain.
const VariantInfo* fallback_of(const VariantInfo& v) {
  const std::string& id = !v.fallback_id.empty() ? v.fallback_id : v.reference_id;
  if (id.empty() || id == v.id) return nullptr;
  return Registry::instance().find(id);
}

bool range_has_american(std::span<const core::OptionSpec> specs, std::size_t begin,
                        std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (specs[i].style == core::ExerciseStyle::kAmerican) return true;
  }
  return false;
}

// Engine-side output corruption (FaultPlan::corrupt): forces quiet NaN
// into selected values so the guard/fallback path is exercisable on
// demand. Index stream 1; per-option decisions, independent of chunking.
std::size_t inject_corrupt_values(std::span<double> values, std::size_t base,
                                  const robust::FaultPlan& plan) {
  std::size_t hit = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (plan.hits(1, base + i, plan.corrupt)) {
      values[i] = kQuietNan;
      ++hit;
    }
  }
  if (hit != 0) obs::counter("robust.inject.corrupted").add(hit);
  return hit;
}

// The same decision stream for a Black–Scholes chunk: option i of the
// chunk is global option base + i, so which options are corrupted does
// not depend on the chunking. Only the call leg is poisoned.
void inject_corrupt_bs(const core::PortfolioView& chunk, std::size_t base,
                       const robust::FaultPlan& plan) {
  std::size_t hit = 0;
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (plan.hits(1, base + i, plan.corrupt)) {
      robust::bs_store_outputs(chunk, i, kQuietNan, robust::bs_elem(chunk, i).put);
      ++hit;
    }
  }
  if (hit != 0) obs::counter("robust.inject.corrupted").add(hit);
}

// Engine-side chunk faults (streams 2 and 3). The injected throw fires
// *before* the kernel runs — the most adversarial ordering, since the
// chunk's outputs are left untouched for the fallback chain to fill.
void inject_chunk_faults(const robust::FaultPlan& plan, std::ptrdiff_t chunk) {
  const auto c = static_cast<std::uint64_t>(chunk);
  if (plan.slow > 0.0 && plan.hits(3, c, plan.slow)) {
    obs::counter("robust.inject.slow").add(1);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(plan.slow_ms));
  }
  if (plan.throw_rate > 0.0 && plan.hits(2, c, plan.throw_rate)) {
    obs::counter("robust.inject.thrown").add(1);
    throw robust::InjectedKernelFault("injected kernel fault in chunk " +
                                      std::to_string(chunk));
  }
}

// Quiet NaN into both outputs of a Black–Scholes view: every option, or
// with a sanitizer mask only the skipped ones.
void nan_bs_outputs(const core::PortfolioView& view, std::span<const std::uint8_t> mask = {}) {
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (mask.empty() || (mask[i] & robust::kFaultSkipped) != 0) {
      robust::bs_store_outputs(view, i, kQuietNan, kQuietNan);
    }
  }
}

// Force quiet NaN into the values of sanitizer-skipped options, so the
// placeholder prices the kernel computed for them never escape.
void mask_skipped_values(const std::vector<std::uint8_t>& mask, std::vector<double>& values,
                         std::vector<double>& std_errors) {
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if ((mask[i] & robust::kFaultSkipped) == 0) continue;
    if (i < values.size()) values[i] = kQuietNan;
    if (i < std_errors.size()) std_errors[i] = kQuietNan;
  }
}

// One flight-recorder record per chunk; a chunk no participant ran keeps
// worker -1 and zero ticks, so "never ran" looks different from "ran and
// failed" in a dump.
void record_chunk(obs::FlightRecorder& flight, std::uint64_t request_id, const VariantInfo& v,
                  std::size_t c, std::size_t begin, std::size_t end, const char* status,
                  int worker = -1, double start_us = 0.0, double end_us = 0.0) {
  obs::FlightRecord fr;
  fr.request_id = request_id;
  fr.chunk = static_cast<std::uint32_t>(c);
  fr.worker = worker;
  fr.begin = begin;
  fr.end = end;
  fr.start_us = start_us;
  fr.end_us = end_us;
  fr.set_kernel(v.id.c_str());
  fr.set_status(status);
  flight.record(fr);
}

// Outcome counter per terminal status code, so a scrape can alert on
// error-class rates without parsing messages. Static handles: the counter
// registry is touched once per code, not once per request.
void count_status(robust::StatusCode code) {
  switch (code) {
    case robust::StatusCode::kOk: {
      static obs::Counter& c = obs::counter("engine.status.ok");
      c.add(1);
      return;
    }
    case robust::StatusCode::kDegraded: {
      static obs::Counter& c = obs::counter("engine.status.degraded");
      c.add(1);
      return;
    }
    case robust::StatusCode::kInvalidArgument: {
      static obs::Counter& c = obs::counter("engine.status.invalid_argument");
      c.add(1);
      return;
    }
    case robust::StatusCode::kInvalidInput: {
      static obs::Counter& c = obs::counter("engine.status.invalid_input");
      c.add(1);
      return;
    }
    case robust::StatusCode::kNotFound: {
      static obs::Counter& c = obs::counter("engine.status.not_found");
      c.add(1);
      return;
    }
    case robust::StatusCode::kDeadlineExceeded: {
      static obs::Counter& c = obs::counter("engine.status.deadline_exceeded");
      c.add(1);
      return;
    }
    case robust::StatusCode::kResourceExhausted: {
      static obs::Counter& c = obs::counter("engine.status.resource_exhausted");
      c.add(1);
      return;
    }
    case robust::StatusCode::kKernelError: {
      static obs::Counter& c = obs::counter("engine.status.kernel_error");
      c.add(1);
      return;
    }
  }
}

// Mutable-string state of one execution that only exceptional paths touch.
struct RunErrors {
  std::mutex mu;
  std::string first;  // first failure message (chunk exception / guard)

  void record(const char* what) {
    std::lock_guard<std::mutex> lock(mu);
    if (first.empty()) first = what;
  }
};

// Everything one Black–Scholes chunk needs, behind one pointer so the
// pool closure stays inside std::function's small buffer.
struct BsRun {
  const VariantInfo* v;
  const PricingRequest* req;
  const core::PortfolioView* src;    // working view: caller arrays, sanitized scalars
  const core::PortfolioView* tiles;  // per-participant negotiation tiles; null = native
  int ntiles;
  const std::size_t* bounds;
  Scratch::BsChunk* chunks;
  PricingResult* res;
  RunErrors* errors;
  obs::Histogram* hist_chunk;
  obs::FlightRecorder* flight;
  std::uint8_t shared;  // fault bits of the batch-wide scalars
};

// Fallback for a Black–Scholes chunk whose kernel threw: the chain's
// same-layout links, then the scalar closed form as the terminal repair
// (outputs NaN'd, then repaired through the guard, which skips masked
// options).
void fallback_bs(const BsRun& r, const core::PortfolioView& chunk,
                 std::span<const std::uint8_t> mask, Scratch::BsChunk& st) {
  for (const VariantInfo* fb = fallback_of(*r.v); fb != nullptr; fb = fallback_of(*fb)) {
    if (fb->layout != chunk.layout || fb->run_range == nullptr) break;
    PricingRequest sub = *r.req;
    sub.kernel_id = fb->id;
    sub.faults = {};  // never inject into the repair path
    sub.scratch.reset();
    try {
      fb->run_range(sub, chunk, 0, chunk.size(), *r.res);
      return;
    } catch (...) {
      // keep walking the chain
    }
  }
  nan_bs_outputs(chunk);
  st.repaired += robust::guard_and_repair_bs(chunk, robust::GuardPolicy{}, mask);
}

// The variant's kernel on one chunk; a throw is recorded and reported as
// kFailed. `inject` arms the request's and the chaos layer's chunk faults
// (first attempt only).
ChunkStatus price_bs_chunk(const BsRun& r, const core::PortfolioView& chunk, std::ptrdiff_t c,
                           bool inject) {
  try {
    if (inject && r.req->faults.any_engine_side()) inject_chunk_faults(r.req->faults, c);
    if (inject && resilience::chaos_active()) {
      resilience::maybe_inject(r.v->id.c_str(), r.res->request_id, static_cast<std::uint64_t>(c));
    }
    r.v->run_range(*r.req, chunk, 0, chunk.size(), *r.res);
    return ChunkStatus::kOk;
  } catch (const std::exception& e) {
    r.errors->record(e.what());
  } catch (...) {
    r.errors->record("non-std exception from kernel");
  }
  return ChunkStatus::kFailed;
}

// One Black–Scholes chunk, start to finish while it is cache-resident:
// fill the participant's tile (negotiated layouts), price, sanitize, fall
// back on a throw, guard and repair, write the outputs back, and NaN the
// sanitizer-skipped options.
//
// The kernel runs before the sanitize scan, on purpose: its first touch
// of the chunk overlaps DRAM traffic with arithmetic, where a scan first
// would stall on memory with nothing to overlap, and the scan then reads
// the chunk from cache (on the 12M-option AOS book, 4 vCPUs: 276M against
// 229M options/s). BS kernels take raw inputs without harm, as under
// sanitize = kOff (VariantInfo::run_range), and a float tile's first fill
// narrows them the IEEE way (out-of-range becomes Inf). A chunk whose scan
// finds faults (the scan repairs them in place under kClamp/kSkip) is
// filled and priced again from the repaired inputs, so outputs, masks and
// counts are exactly those of sanitizing first.
void run_bs_chunk(const BsRun& r, std::ptrdiff_t c) {
  FINBENCH_SPAN("engine.chunk");
  const std::size_t begin = r.bounds[static_cast<std::size_t>(c)];
  const std::size_t m = r.bounds[static_cast<std::size_t>(c) + 1] - begin;
  const PricingRequest& req = *r.req;
  Scratch::BsChunk& st = r.chunks[c];
  const double start_us = obs::trace::now_us();

  const core::PortfolioView src = core::subview(*r.src, begin, m);
  core::PortfolioView chunk = src;
  auto fill = [&] {
    const double fill_us = obs::trace::now_us();
    st.convert_bytes += core::copy_inputs(src, chunk);
    st.convert_seconds += (obs::trace::now_us() - fill_us) * 1e-6;
  };
  if (r.tiles != nullptr) {
    int p = ThreadPool::current_participant();
    if (p < 0 || p >= r.ntiles) p = 0;  // nested inline run: serial, any tile is free
    chunk = core::subview(r.tiles[p], 0, m);
    fill();
  }

  ChunkStatus status = price_bs_chunk(r, chunk, c, /*inject=*/true);
  // kReject scanned the whole book before anything ran (its verdict must
  // not follow writes into the caller's outputs); kOff just clears the
  // report.
  if (req.sanitize != robust::SanitizePolicy::kReject) {
    robust::sanitize_range(src, r.shared, req.sanitize, st.san);
    if (st.san.faulty > 0) {
      if (r.tiles != nullptr) fill();
      if (status == ChunkStatus::kOk) status = price_bs_chunk(r, chunk, c, /*inject=*/false);
    }
  }
  const std::span<const std::uint8_t> mask = st.san.mask;

  if (status == ChunkStatus::kOk && req.faults.corrupt > 0.0) {
    inject_corrupt_bs(chunk, begin, req.faults);
  }
  if (status == ChunkStatus::kFailed && req.fallback) {
    fallback_bs(r, chunk, mask, st);
    status = ChunkStatus::kDegraded;
  }
  if (status != ChunkStatus::kFailed) {
    if (req.guard.mode != robust::GuardMode::kOff) {
      st.repaired += robust::guard_and_repair_bs(chunk, req.guard, mask);
    }
    if (r.tiles != nullptr) {
      const double wb_us = obs::trace::now_us();
      st.convert_bytes += core::copy_outputs(chunk, src);
      st.convert_seconds += (obs::trace::now_us() - wb_us) * 1e-6;
    }
    if (st.san.skipped > 0) nan_bs_outputs(src, mask);
  } else {
    nan_bs_outputs(src);  // unpriced: never leave stale prices behind
  }
  r.res->chunk_status[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(status);

  const double end_us = obs::trace::now_us();
  r.hist_chunk->record_seconds((end_us - start_us) * 1e-6);
  record_chunk(*r.flight, r.res->request_id, *r.v, static_cast<std::size_t>(c), begin, begin + m,
               to_string(status).data(), ThreadPool::current_participant(), start_us, end_us);
}

}  // namespace

Engine::Engine(ThreadPool* pool) : pool_(pool ? pool : &ThreadPool::shared()) {}

int Engine::pool_size() const { return pool_->size(); }

Engine& Engine::shared() {
  static Engine e;
  return e;
}

PricingResult Engine::price(const PricingRequest& req) const {
  PricingResult res;
  price(req, res);
  return res;
}

void Engine::price(const PricingRequest& req, PricingResult& res) const {
  res.ok = false;
  res.error.clear();
  res.status.reset();
  res.kernel_id = req.kernel_id;  // same id on a reused result: no realloc
  res.resolved_id.clear();
  res.tuned = false;
  res.items = 0;
  res.seconds = 0.0;
  res.convert_seconds = 0.0;
  res.convert_bytes = 0;
  res.values.clear();
  res.std_errors.clear();
  res.option_faults.clear();
  res.chunk_status.clear();
  res.options_clamped = res.options_skipped = res.options_repaired = 0;
  res.chunks_degraded = res.chunks_failed = res.chunks_deadline = 0;
  res.brownout_level = 0;
  res.npath_applied = 0;
  res.steps_applied = 0;
  res.attempts = 1;

  // The flight recorder's join key: one id per engine execution,
  // process-unique, stamped into every record this run produces.
  static std::atomic<std::uint64_t> request_seq{0};
  res.request_id = request_seq.fetch_add(1, std::memory_order_relaxed) + 1;

  // Mirrors the structured status into the legacy ok/error pair and
  // returns; every exit below goes through this (and bumps the
  // status-labeled outcome counter).
  auto finish = [&res](robust::Status status) {
    res.status = std::move(status);
    res.ok = res.status.ok();
    if (res.status.code() != robust::StatusCode::kOk) res.error = res.status.to_string();
    count_status(res.status.code());
  };

  // Resolve the kernel id — a concrete registry id passes through, an auto
  // intent ("blackscholes.auto") resolves to a DispatchPlan (cache hit or
  // a one-time race) whose schedule/chunks_per_thread govern execution
  // below. Resolution happens before the deadline is armed: the race is a
  // once-per-key warm-up cost, not part of the priced run. (An auto intent
  // over an empty workload is rejected inside resolve_dispatch — racing
  // nothing would persist a meaningless plan.)
  ResolvedDispatch rd = resolve_dispatch(*this, req);
  if (rd.v == nullptr) {
    finish(std::move(rd.error));
    return;
  }
  const VariantInfo* v = rd.v;
  res.resolved_id = v->id;
  res.tuned = rd.tuned;
  res.layout = v->layout;
  const std::size_t n = req.portfolio.size();
  if (n == 0) {
    finish(robust::Status::invalid_argument(
        "variant '" + v->id + "' got an empty workload (layout " +
        std::string(to_string(req.portfolio.layout)) + ")"));
    return;
  }

  // The engine's working view: same arrays as the caller's, but a local
  // object, so the sanitizer may repair shared BS scalars and the specs
  // span may be re-pointed at the sanitized copy without touching req.
  core::PortfolioView working = req.portfolio;
  Scratch& s = scratch_of(req);

  // Intra-option task handoff: with the resolved task mode on, variant
  // adapters may decompose expensive options into nested fork-join tasks
  // on the engine's pool (engine/task_group.hpp). Re-stamped every pricing
  // — the resolved mode can change between repetitions (tuner, pins).
  s.tasks_on = rd.tasks;
  s.task_pool = rd.tasks ? pool_ : nullptr;

  // Per-kernel latency instruments, resolved once per kernel id: the
  // registry lookup builds label strings and takes a mutex, so repeated
  // pricings of the same request must go through these cached handles
  // (the steady-state path stays allocation-free).
  if (s.hist_kernel_id != v->id) {
    std::string labels = "kernel=\"";
    labels += v->id;
    labels += "\",layout=\"";
    labels += to_string(v->layout);
    labels += '"';
    s.hist_request = &obs::histogram("engine.request.seconds", labels);
    s.hist_chunk = &obs::histogram("engine.chunk.seconds", labels);
    s.flight = &obs::flight_recorder();
    s.hist_kernel_id = v->id;
    s.breaker = nullptr;  // re-resolve below: the variant changed
  }

  // The executed variant's circuit breaker, cached with the histogram
  // handles; the generation guard re-resolves after a registry reset
  // (tests, chaos scenario boundaries) so the handle never dangles.
  {
    resilience::BreakerRegistry& brk = resilience::BreakerRegistry::instance();
    const std::uint64_t gen = brk.generation();
    if (s.breaker == nullptr || s.breaker_gen != gen) {
      s.breaker = &brk.of(v->id);
      s.breaker_gen = gen;
    }
  }

  // --- Layout negotiation --------------------------------------------------
  // A convertible mismatch (any pair of Black–Scholes layouts) is priced
  // chunk by chunk through a cache-resident tile in the variant's layout:
  // fill the tile from the caller's range, price it, write the outputs
  // back. Every pricing therefore reads the caller's current inputs, and
  // the writeback sits inside the timer, so res.seconds stays honest about
  // what the caller's layout really costs.
  if (working.layout != v->layout && !core::convertible(working.layout, v->layout)) {
    finish(robust::Status::invalid_argument(
        "variant '" + v->id + "' needs a " + std::string(to_string(v->layout)) +
        " workload; the request carries " + std::string(to_string(working.layout)) +
        " (not convertible)"));
    return;
  }
  const bool negotiated = working.layout != v->layout;
  const bool bs = is_bs(v->layout) && v->run_range != nullptr;

  // --- Input sanitization --------------------------------------------------
  // Black–Scholes batches classify their shared scalars here and scan the
  // options chunk by chunk inside the pipeline below. Other workloads are
  // scanned whole, here.
  robust::SanitizeReport& san = s.sanitize_report;
  san.reset();
  std::uint8_t shared = robust::kFaultNone;
  if (bs) {
    shared = robust::sanitize_shared(working, req.sanitize);
  } else if (req.sanitize != robust::SanitizePolicy::kOff) {
    robust::sanitize(working, req.sanitize, san);
    if (!san.clean()) {
      if (req.sanitize == robust::SanitizePolicy::kReject) {
        res.option_faults = san.mask;
        finish(robust::Status::invalid_input(
            "workload rejected: " + std::to_string(san.faulty) + " of " + std::to_string(n) +
            " option(s) failed sanitization (see PricingResult::option_faults)"));
        return;
      }
      if (working.layout == Layout::kSpecs) {
        // The caller's specs are immutable through the view: price a
        // policy-applied copy instead (kept in Scratch; the buffer is
        // reused across repetitions of this request).
        s.sanitized_specs.resize(n);
        robust::sanitize_specs(working.specs, s.sanitized_specs, req.sanitize, san);
        working.specs = {s.sanitized_specs.data(), n};
      }
      res.option_faults = san.mask;
      res.options_clamped = san.clamped;
      res.options_skipped = san.skipped;
    }
  }

  // --- Request-scoped caches ------------------------------------------------
  // Chunked execution first builds the variant's request caches (normal
  // streams, lattice and VML scratch pools; run_batch prepares on its
  // own). Like dispatch resolution this is warm-up, built once per request
  // and reused by every repetition, so it runs before the deadline is
  // armed — a first pricing does not spend its budget on it.
  const bool chunked = bs || (v->run_range != nullptr && n >= 2);
  if (chunked && v->prepare) {
    try {
      v->prepare(req, working);
    } catch (const std::exception& e) {
      finish(robust::Status::kernel_error("variant '" + v->id + "' prepare failed: " + e.what()));
      return;
    }
  }

  // --- Deadline / cancellation ---------------------------------------------
  robust::CancelToken& token = s.token;
  token.reset();
  token.set_parent(req.cancel);
  if (req.deadline_seconds > 0.0) token.set_deadline_after(req.deadline_seconds);
  const bool has_deadline = req.deadline_seconds > 0.0 || req.cancel != nullptr;
  const robust::CancelToken* cancel = has_deadline ? &token : nullptr;

  static obs::Counter& c_requests = obs::counter("engine.requests");
  static obs::Counter& c_items = obs::counter("engine.items");
  c_requests.add(1);
  FINBENCH_SPAN("engine.price");
  arch::WallTimer t;

  // Final bookkeeping shared by every execution shape: NaN out the
  // sanitizer-skipped values, aggregate a Status from what happened.
  auto aggregate = [&](RunErrors& errors, std::size_t priced_items) {
    // Score this execution on the variant's circuit breaker — except for
    // requests carrying an injected FaultPlan, whose failures are test
    // machinery, not variant health (variant-scoped chaos faults do not
    // ride on the request and therefore do count).
    if (!req.faults.any() && s.breaker != nullptr &&
        resilience::BreakerRegistry::instance().enabled()) {
      resilience::Outcome oc = resilience::Outcome::kOk;
      if (res.chunks_failed > 0) {
        oc = resilience::Outcome::kError;
      } else if (res.chunks_deadline > 0) {
        oc = resilience::Outcome::kDeadlineMiss;
      } else if (res.chunks_degraded > 0) {
        oc = resilience::Outcome::kQuarantine;
      }
      s.breaker->record(oc);
    }
    if (!res.option_faults.empty() && !res.values.empty()) {
      mask_skipped_values(res.option_faults, res.values, res.std_errors);
    }
    res.items = priced_items;
    res.seconds = t.seconds();
    s.hist_request->record_seconds(res.seconds);
    c_items.add(priced_items);
    if (res.chunks_failed > 0) {
      obs::flight_auto_dump("kernel_error");
      finish(robust::Status::kernel_error(
          std::to_string(res.chunks_failed) + " chunk(s) unrecoverable (" + errors.first +
          "); " + std::to_string(priced_items) + " of " + std::to_string(n) +
          " option(s) priced"));
      return;
    }
    if (res.chunks_deadline > 0) {
      obs::counter("robust.deadline.expired").add(1);
      obs::flight_auto_dump("deadline_exceeded");
      finish(robust::Status::deadline_exceeded(
          "deadline expired: " + std::to_string(priced_items) + " of " + std::to_string(n) +
          " option(s) priced (" + std::to_string(res.chunks_deadline) +
          " chunk(s) skipped; see PricingResult::chunk_status)"));
      return;
    }
    if (res.chunks_degraded > 0 || res.options_clamped > 0 || res.options_skipped > 0 ||
        res.options_repaired > 0) {
      if (res.chunks_degraded > 0) obs::flight_auto_dump("quarantine");
      finish(robust::Status::degraded(
          "degraded: " + std::to_string(res.options_clamped) + " clamped, " +
          std::to_string(res.options_skipped) + " skipped, " +
          std::to_string(res.options_repaired) + " repaired option(s), " +
          std::to_string(res.chunks_degraded) + " fallback chunk(s)"));
      return;
    }
    finish(robust::Status{});
  };

  // --- Whole-batch execution -----------------------------------------------
  // No range adapter (path construction), or a specs batch too small to
  // chunk. The whole batch is one unit of failure/fallback accounting; the
  // cooperative deadline is only checked before the kernel runs.
  if (!chunked) {
    RunErrors errors;
    // The whole batch is one chunk of flight-recorder accounting: one
    // record covering [0, n), one sample in the per-chunk histogram.
    auto record_flight = [&](const char* status, double start_us, double end_us) {
      record_chunk(*s.flight, res.request_id, *v, 0, 0, n, status, -1, start_us, end_us);
    };
    if (cancel != nullptr && cancel->expired()) {
      res.chunks_deadline = 1;
      record_flight("deadline", 0.0, 0.0);
      aggregate(errors, 0);
      return;
    }
    const double batch_start_us = obs::trace::now_us();
    bool priced = false;
    try {
      if (req.faults.any_engine_side()) inject_chunk_faults(req.faults, 0);
      if (resilience::chaos_active()) resilience::maybe_inject(v->id.c_str(), res.request_id, 0);
      v->run_batch(req, working, res);
      priced = true;
    } catch (const std::exception& e) {
      errors.record(e.what());
    } catch (...) {
      errors.record("non-std exception from kernel");
    }
    if (priced && req.faults.corrupt > 0.0) inject_corrupt_values(res.values, 0, req.faults);
    if (!priced && req.fallback) {
      // Walk the fallback chain through same-layout batch variants.
      for (const VariantInfo* fb = fallback_of(*v); fb != nullptr && !priced;
           fb = fallback_of(*fb)) {
        if (fb->layout != working.layout || fb->run_batch == nullptr) break;
        if (fb->european_only && working.layout == Layout::kSpecs &&
            range_has_american(working.specs, 0, n)) {
          continue;
        }
        PricingRequest sub = req;
        sub.kernel_id = fb->id;
        sub.faults = {};  // never inject into the repair path
        sub.scratch.reset();
        try {
          fb->run_batch(sub, working, res);
          priced = true;
          res.chunks_degraded = 1;
          obs::counter("robust.fallback.chunks").add(1);
        } catch (...) {
          // keep walking the chain
        }
      }
    }
    if (!priced) {
      res.chunks_failed = 1;
      obs::counter("robust.fallback.exhausted").add(1);
      res.seconds = t.seconds();
      record_flight("failed", batch_start_us, obs::trace::now_us());
      aggregate(errors, 0);
      return;
    }
    // Output guardrails (statistical estimators get finiteness-only
    // checks). There is no cheaper honest number than the family
    // reference for a deterministic specs value, and re-pricing per
    // option is the chunked path's job: here violations are disclosed as
    // failures.
    if (req.guard.mode != robust::GuardMode::kOff && !res.values.empty() &&
        working.layout == Layout::kSpecs &&
        robust::guard_specs_range(working.specs, res.values, req.guard, v->statistical,
                                  res.option_faults, 0) > 0) {
      errors.record("output guard failed");
      res.chunks_failed = 1;
    }
    const double batch_end_us = obs::trace::now_us();
    s.hist_chunk->record_seconds((batch_end_us - batch_start_us) * 1e-6);
    record_flight(res.chunks_failed != 0     ? "failed"
                  : res.chunks_degraded != 0 ? "degraded"
                                             : "ok",
                  batch_start_us, batch_end_us);
    aggregate(errors, res.chunks_failed == 0 ? (res.items != 0 ? res.items : n) : 0);
    return;
  }

  // --- Chunked execution ---------------------------------------------------
  // Effective scheduling: the request's values for explicit dispatch, the
  // resolved plan's for auto (pins keep the caller's value — see
  // PricingRequest::pin_schedule/pin_chunks).
  const int P = pool_->size();
  const int nparts = rd.schedule == arch::Schedule::kDynamic
                         ? P * std::max(1, rd.chunks_per_thread)
                         : P;
  const std::vector<std::size_t>& bounds = chunk_bounds(*v, req, working, n, nparts, rd.schedule);
  const std::size_t nchunks = bounds.size() - 1;
  res.chunk_status.assign(nchunks, static_cast<std::uint8_t>(ChunkStatus::kNotRun));
  const char* site =
      rd.schedule == arch::Schedule::kDynamic ? "engine.dynamic" : "engine.static";

  // Post-pass flight records for chunks the workers never touched (and for
  // repaired ones).
  auto record_flight = [&](std::size_t c, std::size_t begin, std::size_t end,
                           const char* status) {
    record_chunk(*s.flight, res.request_id, *v, c, begin, end, status);
  };

  if (bs) {
    // --- Black–Scholes chunk pipeline ---------------------------------------
    // Each chunk runs (tile fill) -> kernel -> sanitize -> guard/repair ->
    // (writeback) while it is cache-resident (run_bs_chunk). A batch that
    // fits one chunk runs inline on the caller, under the same one-thread
    // OpenMP and FTZ policy as a pool participant, without waking workers.
    // kReject decides before anything is priced, so a rejected request
    // never writes the caller's outputs: one scan of the whole book up
    // front (it repairs nothing under kReject), which the per-chunk
    // reports below then leave untouched.
    if (req.sanitize == robust::SanitizePolicy::kReject) {
      robust::sanitize_range(working, shared, req.sanitize, san);
      if (!san.clean()) {
        robust::record_sanitize(san);
        res.option_faults = san.mask;
        finish(robust::Status::invalid_input(
            "workload rejected: " + std::to_string(san.faulty) + " of " + std::to_string(n) +
            " option(s) failed sanitization (see PricingResult::option_faults)"));
        return;
      }
    }
    s.bs_chunks.resize(nchunks);
    for (Scratch::BsChunk& st : s.bs_chunks) st.reset();

    // Negotiation tiles: one chunk-sized tile per participant, re-carved
    // from the request arena every pricing (the arena keeps its blocks, so
    // steady state allocates nothing) with this call's sanitized scalars.
    const core::PortfolioView* tiles = nullptr;
    if (negotiated) {
      std::size_t widest = 0;
      for (std::size_t c = 0; c < nchunks; ++c) widest = std::max(widest, bounds[c + 1] - bounds[c]);
      s.arena.reset();
      s.bs_tiles.resize(static_cast<std::size_t>(P));
      for (core::PortfolioView& tile : s.bs_tiles) {
        tile = core::allocate_like(working, v->layout, widest, s.arena);
      }
      tiles = s.bs_tiles.data();
    }

    RunErrors errors;
    const BsRun run{v,         &req,   &working, tiles,       P,       bounds.data(),
                    s.bs_chunks.data(), &res, &errors, s.hist_chunk, s.flight, shared};
    const std::function<void(std::ptrdiff_t)> chunk_fn = [&run](std::ptrdiff_t c) {
      run_bs_chunk(run, c);
    };
    if (nchunks == 1) {
      ThreadPool::run_inline(1, chunk_fn, cancel);
    } else {
      pool_->run(static_cast<std::ptrdiff_t>(nchunks), chunk_fn, rd.schedule, site, cancel);
    }

    // Serial post-pass: statuses, unpriced chunks, per-chunk tallies.
    std::size_t priced_items = 0;
    const bool expired = cancel != nullptr && cancel->expired();
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t begin = bounds[c], end = bounds[c + 1];
      const Scratch::BsChunk& st = s.bs_chunks[c];
      res.options_repaired += st.repaired;
      res.convert_bytes += st.convert_bytes;
      res.convert_seconds += st.convert_seconds;
      switch (static_cast<ChunkStatus>(res.chunk_status[c])) {
        case ChunkStatus::kNotRun:
          res.chunk_status[c] = static_cast<std::uint8_t>(expired ? ChunkStatus::kDeadline
                                                                  : ChunkStatus::kNotRun);
          ++res.chunks_deadline;
          nan_bs_outputs(core::subview(working, begin, end - begin));
          obs::counter("robust.deadline.chunks_skipped").add(1);
          record_flight(c, begin, end, expired ? "deadline" : "not_run");
          break;
        case ChunkStatus::kFailed:
          ++res.chunks_failed;
          obs::counter("robust.fallback.exhausted").add(1);
          break;
        case ChunkStatus::kDegraded:
          ++res.chunks_degraded;
          obs::counter("robust.fallback.chunks").add(1);
          priced_items += end - begin;
          break;
        default:
          priced_items += end - begin;
          break;
      }
    }
    // Merge the per-chunk sanitizer verdicts (chunk masks are indexed from
    // the chunk start) into the request's report and result.
    for (std::size_t c = 0; c < nchunks; ++c) {
      const robust::SanitizeReport& r = s.bs_chunks[c].san;
      san.scanned += r.scanned;
      if (r.faulty == 0) continue;
      san.faulty += r.faulty;
      san.clamped += r.clamped;
      san.skipped += r.skipped;
      if (res.option_faults.empty()) res.option_faults.assign(n, 0);
      std::copy(r.mask.begin(), r.mask.end(),
                res.option_faults.begin() + static_cast<std::ptrdiff_t>(bounds[c]));
    }
    if (req.sanitize != robust::SanitizePolicy::kOff) robust::record_sanitize(san);
    res.options_clamped = san.clamped;
    res.options_skipped = san.skipped;
    if (negotiated) {
      static obs::Counter& converts = obs::counter("engine.layout_converts");
      static obs::Counter& cbytes = obs::counter("engine.convert.bytes");
      static obs::Stat& csecs = obs::stat("engine.convert.seconds");
      converts.add(1);
      cbytes.add(res.convert_bytes);
      csecs.record(res.convert_seconds);
    }
    aggregate(errors, priced_items);
    return;
  }

  res.values.assign(n, 0.0);
  if (v->has_std_error) res.std_errors.assign(n, 0.0);
  RunErrors errors;
  const bool inject = req.faults.any_engine_side();
  const bool guard_on = req.guard.mode != robust::GuardMode::kOff;

  // One-pointer capture: the closure fits std::function's small-buffer
  // optimization, so submitting the run allocates nothing. Kernel
  // exceptions are contained per chunk — the chunk is marked kFailed for
  // the fallback pass below and the pool never sees a failure, so the
  // remaining chunks still execute.
  struct ChunkCtx {
    const VariantInfo* v;
    const PricingRequest* req;
    const core::PortfolioView* view;
    const std::size_t* bounds;
    PricingResult* res;
    RunErrors* errors;
    obs::Histogram* hist_chunk;
    obs::FlightRecorder* flight;
    bool inject;
    bool guard_on;
  };
  ChunkCtx ctx{v, &req, &working, bounds.data(), &res, &errors, s.hist_chunk, s.flight, inject,
               guard_on};
  pool_->run(
      static_cast<std::ptrdiff_t>(nchunks),
      [&ctx](std::ptrdiff_t c) {
        FINBENCH_SPAN("engine.chunk");
        const std::size_t begin = ctx.bounds[static_cast<std::size_t>(c)];
        const std::size_t end = ctx.bounds[static_cast<std::size_t>(c) + 1];
        std::uint8_t& slot = ctx.res->chunk_status[static_cast<std::size_t>(c)];
        const double start_us = obs::trace::now_us();
        try {
          if (ctx.inject) inject_chunk_faults(ctx.req->faults, c);
          if (resilience::chaos_active()) {
            resilience::maybe_inject(ctx.v->id.c_str(), ctx.res->request_id,
                                     static_cast<std::uint64_t>(c));
          }
          ctx.v->run_range(*ctx.req, *ctx.view, begin, end, *ctx.res);
          if (ctx.req->faults.corrupt > 0.0) {
            inject_corrupt_values({ctx.res->values.data() + begin, end - begin}, begin,
                                  ctx.req->faults);
          }
          if (ctx.guard_on &&
              robust::guard_specs_range(
                  ctx.view->specs.subspan(begin, end - begin),
                  {ctx.res->values.data() + begin, end - begin}, ctx.req->guard,
                  ctx.v->statistical, ctx.res->option_faults, begin) > 0) {
            ctx.errors->record("output guard failed");
            slot = static_cast<std::uint8_t>(ChunkStatus::kFailed);
          } else {
            slot = static_cast<std::uint8_t>(ChunkStatus::kOk);
          }
        } catch (const std::exception& e) {
          ctx.errors->record(e.what());
          slot = static_cast<std::uint8_t>(ChunkStatus::kFailed);
        } catch (...) {
          ctx.errors->record("non-std exception from kernel");
          slot = static_cast<std::uint8_t>(ChunkStatus::kFailed);
        }
        const double end_us = obs::trace::now_us();
        ctx.hist_chunk->record_seconds((end_us - start_us) * 1e-6);
        record_chunk(*ctx.flight, ctx.res->request_id, *ctx.v, static_cast<std::size_t>(c), begin,
                     end, slot == static_cast<std::uint8_t>(ChunkStatus::kOk) ? "ok" : "failed",
                     ThreadPool::current_participant(), start_us, end_us);
      },
      rd.schedule, site, cancel);

  // --- Quarantine & fallback pass (serial, exceptional) --------------------
  // Failed chunks re-price through the fallback chain's batch entry point
  // on a sub-workload view; the repaired values are guarded again before
  // they are accepted. Runs on the caller thread; a degraded repetition
  // may allocate — only clean steady-state repetitions are guaranteed
  // allocation-free.
  std::size_t priced_items = 0;
  const bool expired = cancel != nullptr && cancel->expired();
  for (std::size_t c = 0; c < nchunks; ++c) {
    auto status = static_cast<ChunkStatus>(res.chunk_status[c]);
    const std::size_t begin = bounds[c], end = bounds[c + 1];
    if (status == ChunkStatus::kNotRun) {
      res.chunk_status[c] = static_cast<std::uint8_t>(expired ? ChunkStatus::kDeadline
                                                              : ChunkStatus::kNotRun);
      ++res.chunks_deadline;
      std::fill(res.values.begin() + static_cast<std::ptrdiff_t>(begin),
                res.values.begin() + static_cast<std::ptrdiff_t>(end), kQuietNan);
      obs::counter("robust.deadline.chunks_skipped").add(1);
      record_flight(c, begin, end, expired ? "deadline" : "not_run");
      continue;
    }
    if (status == ChunkStatus::kFailed && req.fallback) {
      bool repaired = false;
      for (const VariantInfo* fb = fallback_of(*v); fb != nullptr && !repaired;
           fb = fallback_of(*fb)) {
        if (fb->layout != Layout::kSpecs || fb->run_batch == nullptr) break;
        if (fb->european_only && range_has_american(working.specs, begin, end)) continue;
        PricingRequest sub = req;
        sub.kernel_id = fb->id;
        sub.faults = {};  // never inject into the repair path
        sub.portfolio = core::view_of(working.specs.subspan(begin, end - begin));
        sub.scratch.reset();
        PricingResult subres;
        try {
          fb->run_batch(sub, sub.portfolio, subres);
        } catch (...) {
          continue;  // next link
        }
        if (subres.values.size() != end - begin) continue;
        if (robust::guard_specs_range(working.specs.subspan(begin, end - begin), subres.values,
                                      req.guard, fb->statistical, res.option_faults,
                                      begin) > 0) {
          continue;
        }
        std::copy(subres.values.begin(), subres.values.end(),
                  res.values.begin() + static_cast<std::ptrdiff_t>(begin));
        if (!res.std_errors.empty() && subres.std_errors.size() == end - begin) {
          std::copy(subres.std_errors.begin(), subres.std_errors.end(),
                    res.std_errors.begin() + static_cast<std::ptrdiff_t>(begin));
        }
        repaired = true;
      }
      if (repaired) {
        status = ChunkStatus::kDegraded;
        res.chunk_status[c] = static_cast<std::uint8_t>(status);
        ++res.chunks_degraded;
        obs::counter("robust.fallback.chunks").add(1);
        record_flight(c, begin, end, "degraded");
      } else {
        obs::counter("robust.fallback.exhausted").add(1);
      }
    }
    if (status == ChunkStatus::kOk || status == ChunkStatus::kDegraded) {
      priced_items += end - begin;
    } else {
      ++res.chunks_failed;
      std::fill(res.values.begin() + static_cast<std::ptrdiff_t>(begin),
                res.values.begin() + static_cast<std::ptrdiff_t>(end), kQuietNan);
    }
  }

  aggregate(errors, priced_items);
}

}  // namespace finbench::engine
