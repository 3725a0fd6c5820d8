// Proves the engine's zero-steady-state-allocation guarantee with a
// counting global operator new: after one warm-up pricing of a request
// (which builds the scratch cache — RNG streams, chunk bounds, result
// buffers, the negotiated-layout arena), every further repetition of the
// same request performs zero C++ heap allocations. Covered paths:
//
//   - Black–Scholes in the variant's native layout, one chunk inline and
//     many chunks across a thread pool,
//   - Black–Scholes with layout negotiation (AOS request, SOA kernel):
//     each chunk converts through a tile carved from the request arena,
//     which keeps its blocks across repetitions,
//   - chunked Monte Carlo (stream flavor) across a thread pool: chunks
//     write into pre-sized scratch slices and the
//     dispatch closure fits std::function's small-buffer optimization,
//   - a run_batch-only variant, the one-chunk case,
//   - a resolved <family>.auto request, which rebuilds and compares its
//     TuneKey every pricing.
//
// The same counter, by bytes, proves that Portfolio::bs and
// Portfolio::specs draw a book in place: one book's storage per layout,
// no temporary beside it.
//
// The counter intercepts ::operator new (plain and aligned) only — the
// arena and AlignedAllocator route through these on purpose (see
// finbench/arch/aligned.hpp). malloc-level traffic from the OpenMP
// runtime is invisible here, which is the right scope: the guarantee is
// about the engine's own data structures.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_bytes{0};

std::size_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
std::size_t alloc_bytes() { return g_bytes.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t size = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size ? size : a)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace finbench;
using engine::Engine;
using engine::PricingRequest;
using engine::PricingResult;

namespace {

template <class F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = alloc_count();
  f();
  return alloc_count() - before;
}

}  // namespace

TEST(EngineAlloc, BsWholeBatchNativeLayoutIsAllocationFree) {
  core::Portfolio soa = core::Portfolio::bs(4096, core::Layout::kBsSoa, 1);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = soa.view();

  Engine& eng = Engine::shared();
  PricingResult res;
  eng.price(req, res);  // warm-up: scratch, obs handles, result strings
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(allocs, 0u) << "steady-state BS whole-batch pricing allocated";
}

TEST(EngineAlloc, NegotiatedAosToSoaIsAllocationFreeAfterFirstConversion) {
  core::Portfolio aos = core::Portfolio::bs(4096, core::Layout::kBsAos, 2);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";  // SOA-native kernel, AOS request
  req.portfolio = aos.view();

  Engine& eng = Engine::shared();
  PricingResult res;
  eng.price(req, res);  // warm-up: carves the SOA tiles from the request arena
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_GT(res.convert_bytes, 0u) << "negotiation did not happen";

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(allocs, 0u) << "steady-state negotiated pricing allocated";
  // Every repetition converts its chunks afresh (the inputs may have
  // changed in place) and reports what that cost.
  EXPECT_GT(res.convert_bytes, 0u);
  EXPECT_GT(res.convert_seconds, 0.0);
  // The writeback really happened: prices landed back in the AOS arrays.
  double sum = 0.0;
  for (const auto& o : aos.view().aos.options) sum += o.call;
  EXPECT_GT(sum, 0.0);
}

TEST(EngineAlloc, ChunkedBsAcrossThePoolIsAllocationFree) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  // Native (AOS kernel) and negotiated (AOS book, blocked kernel) books of
  // many chunks: chunk states, tiles and bounds settle after the warm-up.
  for (const char* id : {"bs.blocked_fused_sp.auto", "bs.blocked.auto"}) {
    core::Portfolio aos = core::Portfolio::bs(20000, core::Layout::kBsAos, 5);
    PricingRequest req;
    req.kernel_id = id;
    req.portfolio = aos.view();
    PricingResult res;
    eng.price(req, res);
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    ASSERT_GT(res.chunk_status.size(), 1u) << id;

    const std::size_t allocs = allocations_during([&] {
      for (int rep = 0; rep < 5; ++rep) eng.price(req, res);
    });
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    EXPECT_EQ(allocs, 0u) << "steady-state chunked " << id << " pricing allocated";
  }
}

TEST(EngineAlloc, ChunkedMonteCarloAcrossThePoolIsAllocationFree) {
  const auto workload = core::make_option_workload(48, 7);
  PricingRequest req;
  req.kernel_id = "mc.optimized_stream.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.npath = 8192;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult res;
  eng.price(req, res);  // warm-up: normals, chunk bounds, mc buffer
  eng.price(req, res);  // second warm-up: res buffers at final capacity
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.values.size(), workload.size());
  EXPECT_EQ(allocs, 0u) << "steady-state chunked MC allocated";
}

// The arena-backed kernel scratch pools (PR5): lattice buffers for the
// binomial family and per-worker RNG chunks for computed-path Monte
// Carlo are carved from the request's kernel arena at negotiation time
// and leased per chunk, so steady-state pricing performs zero heap
// allocations even though each option prices over a (steps+1)-deep
// lattice / kRngChunk-wide draw buffer.
TEST(EngineAlloc, BinomialLatticeScratchIsPooledAfterWarmup) {
  const auto workload = core::make_option_workload(48, 9);
  PricingRequest req;
  req.kernel_id = "binomial.advanced.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 256;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult res;
  eng.price(req, res);  // warm-up: lattice pool, chunk bounds
  eng.price(req, res);  // second warm-up: result buffers at capacity
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.values.size(), workload.size());
  EXPECT_EQ(allocs, 0u) << "steady-state binomial pricing allocated";
}

// The nested fork-join layer must preserve the guarantee: deep European
// options decomposing into banded segment tasks lease their per-task work
// rows from the same pooled lattice slots, TaskGroup keeps its closures
// in fixed inline storage, and the pool's task queue is intrusive — so a
// tasked mixed-expiry batch is as allocation-free as a flat one.
TEST(EngineAlloc, TaskedMixedExpiryBinomialIsAllocationFree) {
  const auto workload = core::make_option_workload(48, 11);  // European
  PricingRequest req;
  req.kernel_id = "binomial.reference.scalar";  // the variant that splits deep Europeans
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps_per_year = 512;  // years up to 3.0: depths cross kMinTaskSteps
  req.tasks = engine::TaskMode::kOn;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult res;
  eng.price(req, res);  // warm-up: lattice pool, chunk bounds, task counters
  eng.price(req, res);  // second warm-up: result buffers at capacity
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.values.size(), workload.size());
  EXPECT_EQ(allocs, 0u) << "steady-state tasked binomial pricing allocated";
}

// Depth-packed SIMD lattices: the prepare hook plans the request's packs
// in Scratch-owned buffers (sort keys, pricing order), the engine prices a
// Scratch-owned reordered copy and scatters the outputs back through
// another, and each chunk leases one (deepest+1) x W lattice per worker —
// a mixed-style, mixed-depth book is allocation-free after warm-up.
TEST(EngineAlloc, PackedMixedDepthBinomialIsAllocationFree) {
  auto workload = core::make_option_workload(61, 12);
  for (std::size_t i = 0; i < workload.size(); i += 2) {
    workload[i].style = core::ExerciseStyle::kAmerican;
  }
  PricingRequest req;
  req.kernel_id = "binomial.intermediate.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps_per_year = 256;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult res;
  eng.price(req, res);  // warm-up: lattice pool, pack plan, chunk bounds
  eng.price(req, res);  // second warm-up: result buffers at capacity
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.values.size(), workload.size());
  EXPECT_EQ(allocs, 0u) << "steady-state packed binomial pricing allocated";
}

// Option-packed Crank–Nicolson: each participant leases one pack
// workspace from the pool the prepare hook sized — a book of calls and
// puts in both styles is allocation-free after warm-up.
TEST(EngineAlloc, PackedCrankNicolsonIsAllocationFree) {
  auto workload = core::make_option_workload(61, 14);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    workload[i].style = i % 2 ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
    workload[i].type = i % 3 ? core::OptionType::kPut : core::OptionType::kCall;
  }
  PricingRequest req;
  req.kernel_id = "cn.direct_packed.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 64;
  req.cn_num_prices = 65;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult res;
  eng.price(req, res);  // warm-up: pack pool, chunk bounds
  eng.price(req, res);  // second warm-up: result buffers at capacity
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.values.size(), workload.size());
  EXPECT_EQ(allocs, 0u) << "steady-state packed Crank-Nicolson pricing allocated";
}

TEST(EngineAlloc, MonteCarloComputedRngScratchIsPooledAfterWarmup) {
  const auto workload = core::make_option_workload(48, 13);
  PricingRequest req;
  req.kernel_id = "mc.optimized_computed.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.npath = 8192;
  req.chunks_per_thread = 3;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult res;
  eng.price(req, res);  // warm-up: rng pool, chunk bounds
  eng.price(req, res);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.values.size(), workload.size());
  EXPECT_EQ(allocs, 0u) << "steady-state computed MC allocated";
}

// The blocked binomial family prices its own layout in ranges of whole
// blocks, chunked like any specs variant (not by the Black–Scholes cache
// rule): its chunk status, tally and result buffers keep their capacity
// across repetitions like every chunked run's.
TEST(EngineAlloc, WholeBatchRunBatchOnlyVariantIsAllocationFree) {
  core::Portfolio pf = core::Portfolio::bs(256, core::Layout::kBsBlocked, 17);
  PricingRequest req;
  req.kernel_id = "binomial.blocked.auto";
  req.portfolio = pf.view();
  req.steps = 64;

  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult res;
  eng.price(req, res);  // warm-up: lattice pool, result buffers
  eng.price(req, res);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_GT(res.chunk_status.size(), 1u);

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(allocs, 0u) << "steady-state chunked blocked binomial pricing allocated";
}

// Re-pricing a resolved <family>.auto request rebuilds its TuneKey and
// compares it with the one its scratch holds: no heap traffic, for a
// Black–Scholes book and for a specs book (whose key scans the styles).
TEST(EngineAlloc, AutoIntentRepricingIsAllocationFree) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);
  core::Portfolio aos = core::Portfolio::bs(4096, core::Layout::kBsAos, 6);
  const auto specs = core::make_option_workload(16, 6);
  PricingRequest bs, lattice;
  bs.kernel_id = "bs.auto";
  bs.portfolio = aos.view();
  lattice.kernel_id = "binomial.auto";
  lattice.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  lattice.steps = 32;
  for (PricingRequest* req : {&bs, &lattice}) {
    PricingResult res;
    eng.price(*req, res);  // warm-up: the race, scratch, obs handles
    eng.price(*req, res);  // first scratch hit registers its process-wide counter
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    ASSERT_TRUE(res.tuned);
    const std::string resolved = res.resolved_id;

    const std::size_t allocs = allocations_during([&] {
      for (int rep = 0; rep < 10; ++rep) eng.price(*req, res);
    });
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    EXPECT_EQ(res.resolved_id, resolved);
    EXPECT_EQ(allocs, 0u) << req->kernel_id << ": steady-state auto re-pricing allocated";
  }
}

TEST(EngineAlloc, SwitchingWorkloadsRebuildsThenSettles) {
  // A different workload may change the request's derived state (plan
  // key, chunk bounds): the next call may allocate, but the state must
  // settle again — the negotiation arena reuses its blocks.
  core::Portfolio aos_a = core::Portfolio::bs(1024, core::Layout::kBsAos, 3);
  core::Portfolio aos_b = core::Portfolio::bs(1024, core::Layout::kBsAos, 4);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";

  Engine& eng = Engine::shared();
  PricingResult res;
  req.portfolio = aos_a.view();
  eng.price(req, res);
  req.portfolio = aos_b.view();
  eng.price(req, res);  // same size: the reset arena's blocks fit this
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 4; ++rep) {
      req.portfolio = aos_a.view();
      eng.price(req, res);
      req.portfolio = aos_b.view();
      eng.price(req, res);
    }
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  // Each pricing converts its chunks into reused arena blocks — still no
  // heap traffic.
  EXPECT_EQ(allocs, 0u);
}

// Portfolio::bs (and ::specs) carves the book in its own arena and draws
// into it: the heap sees one book's bytes per layout (plus the arena's
// block list and per-field cache-line rounding), never a second copy of
// the options.
TEST(PortfolioOwner, BsAllocatesOneBookPerLayout) {
  constexpr std::size_t n = 100003;  // ragged blocked tail; far above the 64 KiB min block
  const std::size_t blocked_lanes = (n + 7) / 8 * 8;
  const struct {
    core::Layout layout;
    std::size_t book;
  } cases[] = {{core::Layout::kBsAos, n * sizeof(core::BsOptionAos)},
               {core::Layout::kBsSoa, 5 * n * sizeof(double)},
               {core::Layout::kBsSoaF, 5 * n * sizeof(float)},
               {core::Layout::kBsBlocked, 5 * blocked_lanes * sizeof(double)}};
  for (const auto& c : cases) {
    const std::size_t before = alloc_bytes();
    core::Portfolio pf = core::Portfolio::bs(n, c.layout, 42);
    const std::size_t allocated = alloc_bytes() - before;
    ASSERT_EQ(pf.size(), n);
    EXPECT_GE(allocated, c.book) << to_string(c.layout);
    EXPECT_LE(allocated, c.book + 1024)
        << to_string(c.layout) << ": Portfolio::bs allocated beyond its one book";
  }

  // Portfolio::specs draws into its arena the same way: no temporary
  // vector of the options beside the book, and the same options as
  // make_option_workload.
  const std::size_t book = n * sizeof(core::OptionSpec);
  const std::size_t before = alloc_bytes();
  core::Portfolio pf = core::Portfolio::specs(n, 42);
  const std::size_t allocated = alloc_bytes() - before;
  ASSERT_EQ(pf.size(), n);
  EXPECT_GE(allocated, book);
  EXPECT_LE(allocated, book + 1024) << "Portfolio::specs allocated beyond its one book";
  const std::vector<core::OptionSpec> want = core::make_option_workload(n, 42);
  EXPECT_EQ(std::memcmp(pf.view().specs.data(), want.data(), book), 0)
      << "Portfolio::specs must draw what make_option_workload draws";
}
