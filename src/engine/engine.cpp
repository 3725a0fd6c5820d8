#include "finbench/engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

// Contiguous chunk boundaries over [0, n) for a pool of P participants:
// nparts = P x chunks_per_thread. With `cache_sized` (Engine::price on a
// Black–Scholes layout, whose chunk pipeline re-reads each chunk: scan,
// guard, writeback) chunks hold ~n / nparts options clamped to
// [kBsMinChunk, kBsMaxChunk]. Otherwise the partition is
// cost-model-weighted when the variant has a cost model and there are
// more items than chunks (each chunk carries ~total/K weight, so
// expensive long-dated options don't all land in one chunk), plain
// equal-count stripes otherwise (one item per chunk for a small batch).
// Interior boundaries are multiples of the variant's range_align (64 for
// a Black–Scholes layout); duplicates are dropped, so every chunk is
// non-empty. The result is cached in the request Scratch — steady-state
// repetitions reuse it without touching the heap.
std::span<const std::size_t> chunk_bounds(const VariantInfo& v, const PricingRequest& req,
                                          const core::PortfolioView& view, int P,
                                          int chunks_per_thread, bool cache_sized) {
  const int nparts = P * std::max(1, chunks_per_thread);
  Scratch& s = scratch_of(req);
  const std::size_t n = view.size();
  const std::size_t align =
      is_bs(v.layout) ? kBsChunkAlign : std::max<std::size_t>(1, v.range_align);
  if (s.bounds_n == n && s.bounds_nparts == nparts && s.bounds_cache_sized == cache_sized &&
      s.bounds_align == align && !s.bounds.empty()) {
    return s.bounds;
  }
  std::vector<std::size_t>& bounds = s.bounds;
  bounds.clear();
  bounds.push_back(0);
  std::size_t k = static_cast<std::size_t>(nparts);
  if (k > n) k = n;
  auto push_aligned = [&](std::size_t b) {
    b -= b % align;
    if (b > bounds.back() && b < n) bounds.push_back(b);
  };
  if (cache_sized) {
    std::size_t per = (n + k - 1) / k;
    per = (per + align - 1) / align * align;
    per = std::clamp(per, kBsMinChunk, kBsMaxChunk);
    for (std::size_t b = per; b < n; b += per) bounds.push_back(b);
  } else if (v.item_cost && k < n && !view.specs.empty()) {
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
  s.bounds_cache_sized = cache_sized;
  s.bounds_align = align;
  return bounds;
}

// The default outputs of a pricing: one value per option of a specs
// workload (zeroed when the size changes), none for a Black–Scholes layout
// (priced in place). A paths workload's outputs are the prepare hook's to
// size, so a repeated pricing does not re-zero them.
void size_outputs(const core::PortfolioView& view, PricingResult& res) {
  if (view.layout == Layout::kSpecs) {
    if (res.values.size() != view.size()) res.values.assign(view.size(), 0.0);
  } else if (view.layout != Layout::kPaths) {
    res.values.clear();
  }
  res.std_errors.clear();
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

// Engine-side chunk faults (streams 2 and 3). The injected throw fires
// *before* the kernel runs — the most adversarial ordering, since the
// chunk's outputs are left untouched for the fallback chain to fill.
void inject_chunk_faults(const robust::FaultPlan& plan, std::size_t chunk) {
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

// Every exit of Engine::price goes through here: the structured status,
// and the status-labeled outcome counter.
void finish(PricingResult& res, robust::Status status) {
  res.status = std::move(status);
  count_status(res.status.code());
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

// --- The chunk executor -------------------------------------------------------

// How a chunk reaches the kernel — the one thing that differs between runs.
//   kBs:    Black–Scholes chunks priced in place, each sanitized, guarded
//           and repaired while it is cache-resident (through a tile in the
//           variant's layout on a mismatch);
//   kItems: every other workload: run_range writes the chunk's outputs
//           (specs values, paths) or prices its blocks in place (the
//           blocked binomial family), after a whole-batch sanitize.
enum class Shape : std::uint8_t { kBs, kItems };

Shape shape_of(const VariantInfo& v) {
  return is_bs(v.layout) && v.kernel == "bs" ? Shape::kBs : Shape::kItems;
}

// Everything one execution's chunks need, behind one pointer so the pool
// closure stays inside std::function's small buffer.
struct ChunkRun {
  const VariantInfo* v;
  const PricingRequest* req;
  const core::PortfolioView* view;   // working view: caller arrays, sanitized inputs
  const core::PortfolioView* tiles;  // per-participant negotiation tiles; null = native
  int ntiles;
  Shape shape;
  bool scan;            // sanitize each chunk's options in the chunk (Black–Scholes)
  std::uint8_t shared;  // fault bits of the batch-wide scalars
  const std::size_t* bounds;
  Scratch::ChunkTally* tallies;
  PricingResult* res;
  RunErrors* errors;
  obs::Histogram* hist_chunk;
  obs::FlightRecorder* flight;
};

// The values chunk [begin, end) writes: values[begin, end) for a specs
// workload (point 0 of each path for a paths workload), none when the
// workload is priced in place.
std::span<double> chunk_values(const ChunkRun& r, std::size_t begin, std::size_t end) {
  const std::span<double> all(r.res->values);
  return end <= all.size() ? all.subspan(begin, end - begin) : std::span<double>{};
}

// Variant k prices chunk [begin, end). A Black–Scholes chunk is priced in
// place in its chunk view; every other chunk hands the whole view and its
// range to run_range.
void call_kernel(const ChunkRun& r, const VariantInfo& k, const PricingRequest& rq,
                 const core::PortfolioView& chunk, std::size_t begin, std::size_t end) {
  if (r.shape == Shape::kBs) {
    k.run_range(rq, chunk, 0, chunk.size(), *r.res);
  } else {
    k.run_range(rq, chunk, begin, end, *r.res);
  }
}

// Engine-side output corruption (FaultPlan::corrupt): forces quiet NaN
// into selected outputs so the guard/fallback path is exercisable on
// demand. Index stream 1: output i of a chunk is global option begin + i,
// so which options are corrupted does not depend on the chunking. A
// Black–Scholes chunk has only its call leg poisoned.
void inject_corrupt(const ChunkRun& r, const core::PortfolioView& chunk, std::size_t begin,
                    std::size_t end) {
  const robust::FaultPlan& plan = r.req->faults;
  const std::span<double> values = chunk_values(r, begin, end);
  const bool bs = r.shape == Shape::kBs;
  const std::size_t m = bs ? chunk.size() : values.size();
  std::size_t hit = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (!plan.hits(1, begin + i, plan.corrupt)) continue;
    if (bs) {
      robust::bs_store_outputs(chunk, i, kQuietNan, robust::bs_elem(chunk, i).put);
    } else {
      values[i] = kQuietNan;
    }
    ++hit;
  }
  if (hit != 0) obs::counter("robust.inject.corrupted").add(hit);
}

// Output guard of a specs chunk priced by variant k (statistical
// estimators get finiteness-only checks): the violation count, which
// fails the chunk. Black–Scholes outputs are guarded, and repaired, when
// the chunk settles; other workloads carry no guardable values.
std::size_t guard_values(const ChunkRun& r, const VariantInfo& k, std::size_t begin,
                         std::size_t end) {
  const PricingRequest& req = *r.req;
  if (r.shape == Shape::kBs || req.guard.mode == robust::GuardMode::kOff ||
      r.view->layout != Layout::kSpecs || r.res->values.empty()) {
    return 0;
  }
  return robust::guard_specs_range(r.view->specs.subspan(begin, end - begin),
                                   chunk_values(r, begin, end), req.guard, k.statistical,
                                   r.res->option_faults, begin);
}

// The variant's kernel on chunk c; a throw is recorded and reported as
// kFailed. `inject` arms the request's and the chaos layer's chunk faults
// (first attempt only).
ChunkStatus attempt(const ChunkRun& r, const core::PortfolioView& chunk, std::size_t c,
                    bool inject) {
  try {
    if (inject && r.req->faults.any_engine_side()) inject_chunk_faults(r.req->faults, c);
    if (inject && resilience::chaos_active()) {
      resilience::maybe_inject(r.v->id.c_str(), r.res->request_id, static_cast<std::uint64_t>(c));
    }
    call_kernel(r, *r.v, *r.req, chunk, r.bounds[c], r.bounds[c + 1]);
    return ChunkStatus::kOk;
  } catch (const std::exception& e) {
    r.errors->record(e.what());
  } catch (...) {
    r.errors->record("non-std exception from kernel");
  }
  return ChunkStatus::kFailed;
}

// The fallback walk for a failed chunk: each link of the variant's chain
// re-prices the chunk in turn (never under fault injection) until one's
// outputs pass the guard. A link must share the chunk's layout; a
// European-only link is skipped for a range holding American options.
// Each link prepares a Scratch of its own (nothing prepared it for this
// request) and writes the chunk's outputs in place through run_range;
// the result arrays it would size are the failed variant's, already
// sized, so its prepare sizes a throwaway (a link whose outputs differ in
// shape throws from run_range and the walk moves on).
bool fall_back(const ChunkRun& r, const core::PortfolioView& chunk, std::size_t begin,
               std::size_t end) {
  const core::PortfolioView& view = *r.view;
  for (const VariantInfo* fb = fallback_of(*r.v); fb != nullptr; fb = fallback_of(*fb)) {
    if (fb->layout != chunk.layout) break;
    if (fb->european_only && view.layout == Layout::kSpecs &&
        range_has_american(view.specs, begin, end)) {
      continue;
    }
    PricingRequest sub = *r.req;
    sub.kernel_id = fb->id;
    sub.faults = {};
    sub.scratch.reset();
    try {
      if (fb->prepare) {
        PricingResult sized;
        fb->prepare(sub, chunk, sized);
      }
      call_kernel(r, *fb, sub, chunk, begin, end);
    } catch (...) {
      continue;  // next link
    }
    if (guard_values(r, *fb, begin, end) == 0) return true;
  }
  return false;
}

// One chunk, start to finish while it is cache-resident: fill the
// participant's tile (negotiated layouts), price, scan (Black–Scholes),
// guard, fall back on a failure, repair, write the outputs back and NaN
// the sanitizer-skipped options. A chunk that stays kFailed is NaN'd by
// the post-pass.
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
void run_chunk(const ChunkRun& r, std::ptrdiff_t idx) {
  FINBENCH_SPAN("engine.chunk");
  const auto c = static_cast<std::size_t>(idx);
  const std::size_t begin = r.bounds[c], end = r.bounds[c + 1];
  const PricingRequest& req = *r.req;
  Scratch::ChunkTally& st = r.tallies[c];
  const double start_us = obs::trace::now_us();

  const core::PortfolioView src =
      r.shape == Shape::kBs ? core::subview(*r.view, begin, end - begin) : *r.view;
  core::PortfolioView chunk = src;
  auto fill = [&] {
    const double fill_us = obs::trace::now_us();
    st.convert_bytes += core::copy_inputs(src, chunk);
    st.convert_seconds += (obs::trace::now_us() - fill_us) * 1e-6;
  };
  if (r.tiles != nullptr) {
    int p = ThreadPool::current_participant();
    if (p < 0 || p >= r.ntiles) p = 0;  // caller or nested inline run: serial, any tile is free
    chunk = core::subview(r.tiles[p], 0, src.size());
    fill();
  }

  ChunkStatus status = attempt(r, chunk, c, /*inject=*/true);
  if (r.scan) {
    robust::sanitize_range(src, r.shared, req.sanitize, st.san);
    if (st.san.faulty > 0) {
      if (r.tiles != nullptr) fill();
      if (status == ChunkStatus::kOk) status = attempt(r, chunk, c, /*inject=*/false);
    }
  }
  const std::span<const std::uint8_t> mask = st.san.mask;

  if (status == ChunkStatus::kOk && req.faults.corrupt > 0.0) inject_corrupt(r, chunk, begin, end);
  if (status == ChunkStatus::kOk && guard_values(r, *r.v, begin, end) > 0) {
    r.errors->record("output guard failed");
    status = ChunkStatus::kFailed;
  }
  if (status == ChunkStatus::kFailed && req.fallback) {
    if (fall_back(r, chunk, begin, end)) {
      status = ChunkStatus::kDegraded;
    } else if (r.shape == Shape::kBs) {
      // The scalar closed form is the terminal repair of any BS layout:
      // outputs NaN'd, then repaired through the guard (which skips masked
      // options).
      nan_bs_outputs(chunk);
      st.repaired += robust::guard_and_repair_bs(chunk, robust::GuardPolicy{}, mask);
      status = ChunkStatus::kDegraded;
    }
  }
  if (status != ChunkStatus::kFailed) {
    if (r.shape == Shape::kBs && req.guard.mode != robust::GuardMode::kOff) {
      st.repaired += robust::guard_and_repair_bs(chunk, req.guard, mask);
    }
    if (r.tiles != nullptr) {
      const double wb_us = obs::trace::now_us();
      st.convert_bytes += core::copy_outputs(chunk, src);
      st.convert_seconds += (obs::trace::now_us() - wb_us) * 1e-6;
    }
    if (st.san.skipped > 0) nan_bs_outputs(src, mask);
  }
  r.res->chunk_status[c] = static_cast<std::uint8_t>(status);

  const double end_us = obs::trace::now_us();
  r.hist_chunk->record_seconds((end_us - start_us) * 1e-6);
  record_chunk(*r.flight, r.res->request_id, *r.v, c, begin, end, to_string(status).data(),
               ThreadPool::current_participant(), start_us, end_us);
}

// Quiet NaN into the outputs of a chunk that did not price, so stale
// prices never survive it. A paths chunk's outputs are strided: point c
// of path s is values[c * npaths + s].
void nan_unpriced(const ChunkRun& r, std::size_t begin, std::size_t end) {
  const core::PortfolioView& view = *r.view;
  if (robust::is_bs_layout(view)) nan_bs_outputs(core::subview(view, begin, end - begin));
  const std::size_t n = view.size();
  std::vector<double>& values = r.res->values;
  for (std::size_t row = 0; (row + 1) * n <= values.size(); ++row) {
    std::fill(values.begin() + static_cast<std::ptrdiff_t>(row * n + begin),
              values.begin() + static_cast<std::ptrdiff_t>(row * n + end), kQuietNan);
  }
}

// Serial post-pass over the chunk statuses: unpriced chunks get NaN
// outputs and a flight record (kNotRun becomes kDeadline when the token
// expired), statuses are counted, and the per-chunk tallies and sanitizer
// verdicts (chunk masks are indexed from the chunk start) merge into the
// result and the request's report. Returns the priced item count.
std::size_t post_pass(const ChunkRun& r, std::size_t nchunks, bool expired,
                      robust::SanitizeReport& san) {
  PricingResult& res = *r.res;
  const std::size_t n = r.bounds[nchunks];
  std::size_t priced = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = r.bounds[c], end = r.bounds[c + 1];
    switch (static_cast<ChunkStatus>(res.chunk_status[c])) {
      case ChunkStatus::kNotRun:
        res.chunk_status[c] = static_cast<std::uint8_t>(expired ? ChunkStatus::kDeadline
                                                                : ChunkStatus::kNotRun);
        ++res.chunks_deadline;
        nan_unpriced(r, begin, end);
        obs::counter("robust.deadline.chunks_skipped").add(1);
        record_chunk(*r.flight, res.request_id, *r.v, c, begin, end,
                     expired ? "deadline" : "not_run");
        break;
      case ChunkStatus::kFailed:
        ++res.chunks_failed;
        nan_unpriced(r, begin, end);
        obs::counter("robust.fallback.exhausted").add(1);
        break;
      case ChunkStatus::kDegraded:
        ++res.chunks_degraded;
        obs::counter("robust.fallback.chunks").add(1);
        priced += end - begin;
        break;
      default:
        priced += end - begin;
        break;
    }
    const Scratch::ChunkTally& st = r.tallies[c];
    res.options_repaired += st.repaired;
    res.convert_bytes += st.convert_bytes;
    res.convert_seconds += st.convert_seconds;
    san.scanned += st.san.scanned;
    if (st.san.faulty == 0) continue;
    san.faulty += st.san.faulty;
    san.clamped += st.san.clamped;
    san.skipped += st.san.skipped;
    if (res.option_faults.empty()) res.option_faults.assign(n, 0);
    std::copy(st.san.mask.begin(), st.san.mask.end(),
              res.option_faults.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  return priced;
}

// Execute chunks [0, nchunks): one chunk (a quote, a one-option book)
// inline on the caller, under the same FTZ policy as a pool participant,
// without waking workers; more across the pool.
void run_chunks(ThreadPool& pool, std::size_t nchunks,
                const std::function<void(std::ptrdiff_t)>& fn, const char* site,
                const robust::CancelToken* cancel = nullptr) {
  if (nchunks == 1) {
    ThreadPool::run_inline(1, fn, cancel);
  } else {
    pool.run(static_cast<std::ptrdiff_t>(nchunks), fn, site, cancel);
  }
}

// --- Stages of Engine::price ----------------------------------------------

// The workload must be non-empty and in the variant's layout, or in one
// the chunks convert through tiles: a Black–Scholes layout, for a
// Black–Scholes variant (the blocked binomial family prices its own
// layout only).
robust::Status check_workload(const VariantInfo& v, const core::PortfolioView& w) {
  if (w.size() == 0) {
    return robust::Status::invalid_argument("variant '" + v.id +
                                            "' got an empty workload (layout " +
                                            std::string(to_string(w.layout)) + ")");
  }
  if (w.layout != v.layout &&
      (!core::convertible(w.layout, v.layout) || shape_of(v) != Shape::kBs)) {
    return robust::Status::invalid_argument(
        "variant '" + v.id + "' needs a " + std::string(to_string(v.layout)) +
        " workload; the request carries " + std::string(to_string(w.layout)) +
        " (not convertible)");
  }
  return {};
}

// Per-request handles, re-stamped every pricing: the executing pool (it
// sizes the scratch pools) and the intra-option task handoff (variant
// adapters may decompose expensive options into nested fork-join tasks on
// that pool, engine/task_group.hpp; the resolved mode can change between
// repetitions), the per-kernel latency
// instruments and the executed variant's circuit breaker. The registry
// lookups build label strings and take a mutex, so they run once per
// kernel id and repeated pricings go through the cached handles (the
// steady-state path stays allocation-free); the breaker's generation guard
// re-resolves after a registry reset (tests, chaos scenario boundaries) so
// the handle never dangles.
void bind_request(Scratch& s, const VariantInfo& v, const ResolvedDispatch& rd, ThreadPool* pool) {
  s.pool = pool;
  s.tasks_on = rd.tasks;
  if (s.hist_kernel_id != v.id) {
    std::string labels = "kernel=\"";
    labels += v.id;
    labels += "\",layout=\"";
    labels += to_string(v.layout);
    labels += '"';
    s.hist_request = &obs::histogram("engine.request.seconds", labels);
    s.hist_chunk = &obs::histogram("engine.chunk.seconds", labels);
    s.flight = &obs::flight_recorder();
    s.hist_kernel_id = v.id;
    s.breaker = nullptr;  // re-resolve below: the variant changed
  }
  resilience::BreakerRegistry& brk = resilience::BreakerRegistry::instance();
  const std::uint64_t gen = brk.generation();
  if (s.breaker == nullptr || s.breaker_gen != gen) {
    s.breaker = &brk.of(v.id);
    s.breaker_gen = gen;
  }
}

// Sanitize stage. A Black–Scholes run classifies its shared scalars here
// and scans its options chunk by chunk in the executor. Other workloads
// are scanned whole here, and so is every kReject request: its verdict
// must stand before anything is priced, so a rejected request never
// writes the caller's outputs. A specs workload with faults is priced
// from a policy-applied copy (the caller's specs are immutable through
// the view; the copy lives in Scratch and is reused across repetitions).
// Returns the rejection, if any.
robust::Status sanitize_inputs(const PricingRequest& req, Shape shape, core::PortfolioView& working,
                               Scratch& s, PricingResult& res, std::uint8_t& shared) {
  robust::SanitizeReport& san = s.sanitize_report;
  san.reset();
  if (shape == Shape::kBs && req.sanitize != robust::SanitizePolicy::kReject) {
    shared = robust::sanitize_shared(working, req.sanitize);
    return {};
  }
  if (req.sanitize == robust::SanitizePolicy::kOff) return {};
  robust::sanitize(working, req.sanitize, san);
  if (san.clean()) return {};
  if (req.sanitize == robust::SanitizePolicy::kReject) {
    res.option_faults = san.mask;
    return robust::Status::invalid_input(
        "workload rejected: " + std::to_string(san.faulty) + " of " +
        std::to_string(working.size()) +
        " option(s) failed sanitization (see PricingResult::option_faults)");
  }
  if (working.layout == Layout::kSpecs) {
    const std::size_t n = working.specs.size();
    s.sanitized_specs.resize(n);
    robust::sanitize_specs(working.specs, s.sanitized_specs, req.sanitize, san);
    working.specs = {s.sanitized_specs.data(), n};
  }
  res.option_faults = san.mask;
  return {};
}

// Arm the request's cancel token: its own deadline and the caller's
// token. Null when neither is set, so chunks skip the poll.
const robust::CancelToken* arm_deadline(const PricingRequest& req, robust::CancelToken& token) {
  token.reset();
  token.set_parent(req.cancel);
  if (req.deadline_seconds > 0.0) token.set_deadline_after(req.deadline_seconds);
  return req.deadline_seconds > 0.0 || req.cancel != nullptr ? &token : nullptr;
}

// Negotiation tiles: one chunk-sized tile in the variant's layout per
// participant that may run a chunk, re-carved from the request arena
// every pricing (the arena keeps its blocks, so steady state allocates
// nothing) with this call's sanitized scalars.
const core::PortfolioView* carve_tiles(Scratch& s, const core::PortfolioView& working,
                                       Layout layout, std::span<const std::size_t> bounds,
                                       int ntiles) {
  std::size_t widest = 0;
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    widest = std::max(widest, bounds[c + 1] - bounds[c]);
  }
  s.arena.reset();
  s.tiles.resize(static_cast<std::size_t>(ntiles));
  for (core::PortfolioView& tile : s.tiles) {
    tile = core::allocate_like(working, layout, widest, s.arena);
  }
  return s.tiles.data();
}

// Final stage: score the execution on the variant's circuit breaker
// (except for requests carrying an injected FaultPlan, whose failures are
// test machinery, not variant health; variant-scoped chaos faults do not
// ride on the request and therefore do count), NaN the sanitizer-skipped
// values, record the timings and aggregate one Status from what happened.
void aggregate(const PricingRequest& req, Scratch& s, PricingResult& res, const RunErrors& errors,
               std::size_t priced, std::size_t n, double seconds) {
  static obs::Counter& c_items = obs::counter("engine.items");
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
  res.items = priced;
  res.seconds = seconds;
  s.hist_request->record_seconds(seconds);
  c_items.add(priced);
  if (res.chunks_failed > 0) {
    obs::flight_auto_dump("kernel_error");
    return finish(res, robust::Status::kernel_error(
                           std::to_string(res.chunks_failed) + " chunk(s) unrecoverable (" +
                           errors.first + "); " + std::to_string(priced) + " of " +
                           std::to_string(n) + " option(s) priced"));
  }
  if (res.chunks_deadline > 0) {
    obs::counter("robust.deadline.expired").add(1);
    obs::flight_auto_dump("deadline_exceeded");
    return finish(res, robust::Status::deadline_exceeded(
                           "deadline expired: " + std::to_string(priced) + " of " +
                           std::to_string(n) + " option(s) priced (" +
                           std::to_string(res.chunks_deadline) +
                           " chunk(s) skipped; see PricingResult::chunk_status)"));
  }
  if (res.chunks_degraded > 0 || res.options_clamped > 0 || res.options_skipped > 0 ||
      res.options_repaired > 0) {
    if (res.chunks_degraded > 0) obs::flight_auto_dump("quarantine");
    return finish(res, robust::Status::degraded(
                           "degraded: " + std::to_string(res.options_clamped) + " clamped, " +
                           std::to_string(res.options_skipped) + " skipped, " +
                           std::to_string(res.options_repaired) + " repaired option(s), " +
                           std::to_string(res.chunks_degraded) + " fallback chunk(s)"));
  }
  finish(res, robust::Status{});
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

// resolve → sanitize → prepare → arm deadline → partition → execute
// chunks → post-pass → aggregate. Every run goes through the same chunk
// executor; a workload the kernel prices in one batch call is the
// one-chunk case [0, n).
void Engine::price(const PricingRequest& req, PricingResult& res) const {
  // The flight recorder's join key: one id per engine execution,
  // process-unique, stamped into every record this run produces.
  static std::atomic<std::uint64_t> request_seq{0};
  res.reset(req.kernel_id);
  res.request_id = request_seq.fetch_add(1, std::memory_order_relaxed) + 1;

  // --- Resolve ---------------------------------------------------------------
  // A concrete registry id passes through; an auto intent
  // ("blackscholes.auto") resolves to a DispatchPlan (cache hit or a
  // one-time race) whose chunks_per_thread and task mode govern execution.
  // Resolution, like sanitization and prepare, happens before the deadline
  // is armed: it is once-per-key warm-up, not part of the priced run.
  ResolvedDispatch rd = resolve_dispatch(*this, req);
  if (rd.v == nullptr) return finish(res, std::move(rd.error));
  const VariantInfo& v = *rd.v;
  res.resolved_id = v.id;
  res.tuned = rd.tuned;
  res.layout = v.layout;
  if (robust::Status st = check_workload(v, req.portfolio); !st.ok()) {
    return finish(res, std::move(st));
  }
  const std::size_t n = req.portfolio.size();
  const Shape shape = shape_of(v);
  Scratch& s = scratch_of(req);
  bind_request(s, v, rd, pool_);

  // --- Sanitize --------------------------------------------------------------
  // The engine's working view: same arrays as the caller's, but a local
  // object, so the sanitizer may repair shared BS scalars and the specs
  // span may be re-pointed at the sanitized copy without touching req.
  core::PortfolioView working = req.portfolio;
  std::uint8_t shared = robust::kFaultNone;
  robust::Status verdict = sanitize_inputs(req, shape, working, s, res, shared);

  // --- Prepare ---------------------------------------------------------------
  // The result's outputs and the variant's request caches (normal
  // streams, lattice, pack and VML scratch pools), built once per request.
  // A rejected workload is never priced, so nothing is prepared for it.
  if (verdict.ok()) {
    size_outputs(working, res);
    try {
      if (v.prepare) v.prepare(req, working, res);
    } catch (const std::exception& e) {
      return finish(res, robust::Status::kernel_error("variant '" + v.id +
                                                      "' prepare failed: " + e.what()));
    }
  }

  // --- Arm deadline ----------------------------------------------------------
  const robust::CancelToken* cancel = arm_deadline(req, s.token);
  static obs::Counter& c_requests = obs::counter("engine.requests");
  c_requests.add(1);
  FINBENCH_SPAN("engine.price");
  arch::WallTimer t;

  // --- Partition -------------------------------------------------------------
  // Chunk granularity: the request's for a concrete id, the resolved
  // plan's for an auto id.
  const int P = pool_->size();
  const std::span<const std::size_t> bounds =
      chunk_bounds(v, req, working, P, rd.chunks_per_thread, is_bs(v.layout));
  const std::size_t nchunks = bounds.size() - 1;
  res.chunk_status.assign(nchunks, static_cast<std::uint8_t>(ChunkStatus::kNotRun));
  s.tallies.resize(nchunks);
  for (Scratch::ChunkTally& st : s.tallies) st.reset();

  // A rejected workload stops here, before anything is priced: the
  // caller's outputs are never written, and every chunk reports kNotRun.
  if (!verdict.ok()) return finish(res, std::move(verdict));

  // --- Execute chunks --------------------------------------------------------
  // A convertible layout mismatch (any pair of Black–Scholes layouts) is
  // priced chunk by chunk through a tile in the variant's layout: fill the
  // tile from the caller's range, price it, write the outputs back. Every
  // pricing therefore reads the caller's current inputs, and the writeback
  // sits inside the timer, so res.seconds stays honest about what the
  // caller's layout really costs.
  const int ntiles = nchunks == 1 ? 1 : P;
  const core::PortfolioView* tiles =
      working.layout != v.layout ? carve_tiles(s, working, v.layout, bounds, ntiles) : nullptr;
  RunErrors errors;
  const bool scan = shape == Shape::kBs && req.sanitize != robust::SanitizePolicy::kOff &&
                    req.sanitize != robust::SanitizePolicy::kReject;
  const ChunkRun run{&v,    &req, &working,      tiles,           ntiles,
                     shape, scan, shared,        bounds.data(),   s.tallies.data(),
                     &res,  &errors, s.hist_chunk, s.flight};
  // Kernel exceptions are contained per chunk, so the pool never sees a
  // failure and the remaining chunks still execute.
  run_chunks(*pool_, nchunks, [&run](std::ptrdiff_t c) { run_chunk(run, c); }, "engine.dynamic",
             cancel);

  // --- Post-pass -------------------------------------------------------------
  robust::SanitizeReport& san = s.sanitize_report;
  const std::size_t priced = post_pass(run, nchunks, cancel != nullptr && cancel->expired(), san);
  if (scan) robust::record_sanitize(san);
  res.options_clamped = san.clamped;
  res.options_skipped = san.skipped;
  if (tiles != nullptr) {
    static obs::Counter& converts = obs::counter("engine.layout_converts");
    static obs::Counter& cbytes = obs::counter("engine.convert.bytes");
    static obs::Stat& csecs = obs::stat("engine.convert.seconds");
    converts.add(1);
    cbytes.add(res.convert_bytes);
    csecs.record(res.convert_seconds);
  }

  // --- Aggregate -------------------------------------------------------------
  aggregate(req, s, res, errors, priced, n, t.seconds());
}

void Engine::run_batch(const VariantInfo& v, const PricingRequest& req,
                       const core::PortfolioView& view, PricingResult& res) const {
  Scratch& s = scratch_of(req);
  s.pool = pool_;
  s.tasks_on = false;
  size_outputs(view, res);
  if (v.prepare) v.prepare(req, view, res);
  res.items = view.size();
  if (view.size() == 0) return;
  const std::span<const std::size_t> b =
      chunk_bounds(v, req, view, pool_->size(), req.chunks_per_thread, false);
  run_chunks(
      *pool_, b.size() - 1, [&](std::ptrdiff_t c) { v.run_range(req, view, b[c], b[c + 1], res); },
      "batch");
}

}  // namespace finbench::engine
