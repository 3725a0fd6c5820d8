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
//   - a run_batch-only variant, the one-chunk case.
//
// The counter intercepts ::operator new (plain and aligned) only — the
// arena and AlignedAllocator route through these on purpose (see
// finbench/arch/aligned.hpp). malloc-level traffic from the OpenMP
// runtime is invisible here, which is the right scope: the guarantee is
// about the engine's own data structures.

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"

namespace {

std::atomic<std::size_t> g_allocs{0};

std::size_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
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
  auto soa = core::make_bs_workload_soa(4096, 1);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = core::view_of(soa);

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
  auto aos = core::make_bs_workload_aos(4096, 2);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";  // SOA-native kernel, AOS request
  req.portfolio = core::view_of(aos);

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
  for (const auto& o : aos.options) sum += o.call;
  EXPECT_GT(sum, 0.0);
}

TEST(EngineAlloc, ChunkedBsAcrossThePoolIsAllocationFree) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  // Native (AOS kernel) and negotiated (AOS book, blocked kernel) books of
  // many chunks: chunk states, tiles and bounds settle after the warm-up.
  for (const char* id : {"blackscholes.blocked_fused.8f", "blackscholes.blocked.8"}) {
    auto aos = core::make_bs_workload_aos(20000, 5);
    PricingRequest req;
    req.kernel_id = id;
    req.portfolio = core::view_of(aos);
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

// Depth-packed SIMD lattices: each chunk sorts its depth keys in a slice
// of the request's depth_order, sized by the prepare hook, and leases one
// (deepest+1) x W lattice per worker — a mixed-style, mixed-depth book is
// allocation-free after warm-up.
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
  eng.price(req, res);  // warm-up: lattice pool, depth keys, chunk bounds
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

// A run_batch-only variant (the blocked binomial family) is the
// executor's one-chunk case: its chunk status, tally and result buffers
// keep their capacity across repetitions like every chunked run's.
TEST(EngineAlloc, WholeBatchRunBatchOnlyVariantIsAllocationFree) {
  core::Portfolio pf = core::Portfolio::bs(256, core::Layout::kBsBlocked, 17);
  PricingRequest req;
  req.kernel_id = "binomial.blocked.4";
  req.portfolio = pf.view();
  req.steps = 64;

  Engine& eng = Engine::shared();
  PricingResult res;
  eng.price(req, res);  // warm-up: lattice pool, result buffers
  eng.price(req, res);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.chunk_status.size(), 1u);

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 10; ++rep) eng.price(req, res);
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(allocs, 0u) << "steady-state whole-batch pricing allocated";
}

TEST(EngineAlloc, SwitchingWorkloadsRebuildsThenSettles) {
  // A different workload may change the request's derived state (plan
  // key, chunk bounds): the next call may allocate, but the state must
  // settle again — the negotiation arena reuses its blocks.
  auto aos_a = core::make_bs_workload_aos(1024, 3);
  auto aos_b = core::make_bs_workload_aos(1024, 4);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";

  Engine& eng = Engine::shared();
  PricingResult res;
  req.portfolio = core::view_of(aos_a);
  eng.price(req, res);
  req.portfolio = core::view_of(aos_b);
  eng.price(req, res);  // same size: the reset arena's blocks fit this
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 4; ++rep) {
      req.portfolio = core::view_of(aos_a);
      eng.price(req, res);
      req.portfolio = core::view_of(aos_b);
      eng.price(req, res);
    }
  });
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  // Each pricing converts its chunks into reused arena blocks — still no
  // heap traffic.
  EXPECT_EQ(allocs, 0u);
}
