// finbench::serve contract tests (include/finbench/serve/server.hpp):
//
//   - result scattering: a coalesced member's prices are BITWISE the
//     prices Engine::price produces for the same portfolio alone — the
//     group.hpp determinism contract, observed through the server
//   - coalescing proof: a drained backlog fuses (stats().max_batch > 1,
//     per-job batch_size scattered back)
//   - partial failure: a member with poisoned inputs degrades alone;
//     its batch mates keep clean statuses and untouched bits
//   - deadlines: a job whose budget expired in the queue completes
//     immediately with kDeadlineExceeded and blocks nobody behind it
//   - admission: ring-full and byte-cap submissions shed synchronously
//     with kResourceExhausted and the job stays resubmittable
//   - steady state: with jobs, server, and group scratch warm, a
//     submit→dispatch→complete round performs zero heap allocations
//     (counting global operator new, same scope as test_engine_alloc)
//
// Determinism note: tests that assert on batch composition submit their
// whole wave BEFORE Server::start() — jobs sit in the ring until the
// dispatcher's first drain, so the coalescer sees the full backlog
// instead of whatever slice won the race with the submitting thread.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/obs/flight_recorder.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/robust/fault.hpp"
#include "finbench/serve/server.hpp"
#include "finbench/tune/cache.hpp"
#include "finbench/tune/tuner.hpp"

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

namespace {

constexpr const char* kKernel = "bs.blocked_fused_sp.auto";
constexpr std::size_t kPer = 64;

// A wave of same-kernel AOS jobs over freshly generated portfolios.
// Seeded: Portfolio::bs(n, layout, seed) is deterministic, so a second
// set built from the same seeds is an exact replica for solo pricing.
struct Wave {
  std::vector<core::Portfolio> pfs;
  std::vector<serve::PricingJob> jobs;

  explicit Wave(std::size_t nreq, std::uint64_t seed0 = 100) : jobs(nreq) {
    pfs.reserve(nreq);
    for (std::size_t i = 0; i < nreq; ++i) {
      pfs.push_back(core::Portfolio::bs(kPer, core::Layout::kBsAos, seed0 + i));
      jobs[i].request.kernel_id = kKernel;
      jobs[i].request.portfolio = pfs.back().view();
    }
  }
};

bool bitwise_equal_outputs(const core::PortfolioView& a, const core::PortfolioView& b) {
  const auto& oa = a.aos.options;
  const auto& ob = b.aos.options;
  if (oa.size() != ob.size()) return false;
  for (std::size_t i = 0; i < oa.size(); ++i) {
    if (std::memcmp(&oa[i].call, &ob[i].call, sizeof(double)) != 0) return false;
    if (std::memcmp(&oa[i].put, &ob[i].put, sizeof(double)) != 0) return false;
  }
  return true;
}

template <class F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = alloc_count();
  f();
  return alloc_count() - before;
}

}  // namespace

TEST(Serve, CoalescedMembersPriceBitwiseIdenticalToSolo) {
  const std::size_t nreq = 12;
  Wave served(nreq), solo(nreq);  // same seeds -> identical inputs

  engine::Engine& eng = engine::Engine::shared();
  for (std::size_t i = 0; i < nreq; ++i) {
    const engine::PricingResult r = eng.price(solo.jobs[i].request);
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  }

  serve::Server server;
  for (auto& job : served.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : served.jobs) server.wait(job);
  server.stop();

  const serve::Server::Stats st = server.stats();
  EXPECT_EQ(st.completed, nreq);
  EXPECT_GT(st.max_batch, 1u) << "full pre-start backlog did not coalesce";
  for (std::size_t i = 0; i < nreq; ++i) {
    EXPECT_TRUE(served.jobs[i].done());
    EXPECT_TRUE(served.jobs[i].result.status.ok())
        << served.jobs[i].result.status.to_string();
    EXPECT_GT(served.jobs[i].batch_size, 1u);
    EXPECT_TRUE(bitwise_equal_outputs(served.jobs[i].request.portfolio,
                                      solo.jobs[i].request.portfolio))
        << "member " << i << " priced differently inside its fused batch";
  }
}

TEST(Serve, UncoalescedServerPricesEveryJobAlone) {
  const std::size_t nreq = 6;
  Wave wave(nreq, 300);
  serve::ServerConfig cfg;
  cfg.coalesce = false;
  serve::Server server(cfg);
  for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : wave.jobs) server.wait(job);
  server.stop();

  const serve::Server::Stats st = server.stats();
  EXPECT_EQ(st.batches, nreq);
  EXPECT_EQ(st.coalesced, 0u);
  EXPECT_EQ(st.max_batch, 1u);
  for (auto& job : wave.jobs) {
    EXPECT_TRUE(job.result.status.ok());
    EXPECT_EQ(job.batch_size, 1u);
  }
}

TEST(Serve, PartialFailureDegradesOnlyThePoisonedMember) {
  const std::size_t nreq = 8, bad = 3;
  Wave served(nreq, 500), solo(nreq, 500);

  robust::FaultPlan plan;
  plan.seed = 7;
  plan.poison = 0.5;
  ASSERT_GT(robust::inject_input_faults(served.jobs[bad].request.portfolio, plan), 0u);

  engine::Engine& eng = engine::Engine::shared();
  for (std::size_t i = 0; i < nreq; ++i) {
    if (i == bad) continue;
    ASSERT_TRUE(eng.price(solo.jobs[i].request).status.ok());
  }

  serve::Server server;
  for (auto& job : served.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : served.jobs) server.wait(job);
  server.stop();

  // The poisoned member fused with its mates (default sanitize = kSkip
  // keeps it priceable) and is the only one that reports degradation.
  EXPECT_GT(served.jobs[bad].batch_size, 1u);
  EXPECT_EQ(served.jobs[bad].result.status.code(), robust::StatusCode::kDegraded)
      << served.jobs[bad].result.status.to_string();
  EXPECT_GT(served.jobs[bad].result.options_skipped, 0u);
  for (std::size_t i = 0; i < nreq; ++i) {
    if (i == bad) continue;
    EXPECT_EQ(served.jobs[i].result.status.code(), robust::StatusCode::kOk)
        << "clean member " << i << " inherited its batch mate's degradation";
    EXPECT_EQ(served.jobs[i].result.options_skipped, 0u);
    EXPECT_TRUE(bitwise_equal_outputs(served.jobs[i].request.portfolio,
                                      solo.jobs[i].request.portfolio));
  }
}

TEST(Serve, ExpiredDeadlineCompletesImmediatelyWithoutBlockingTheQueue) {
  const std::size_t nreq = 8, doomed = 0;
  Wave wave(nreq, 700);
  wave.jobs[doomed].request.deadline_seconds = 1e-9;  // expires in the ring

  serve::Server server;
  for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : wave.jobs) server.wait(job);
  server.stop();

  EXPECT_EQ(wave.jobs[doomed].result.status.code(),
            robust::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(wave.jobs[doomed].batch_size, 0u);  // never dispatched
  EXPECT_EQ(server.stats().expired_in_queue, 1u);
  for (std::size_t i = 1; i < nreq; ++i) {
    EXPECT_TRUE(wave.jobs[i].result.status.ok())
        << "job behind the expired one did not complete cleanly";
  }
}

TEST(Serve, AdmissionShedsWhenTheRingIsFull) {
  serve::ServerConfig cfg;
  cfg.queue_capacity = 4;
  serve::Server server(cfg);

  Wave wave(5, 900);
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(server.submit(wave.jobs[i]).ok());
  const robust::Status shed = server.submit(wave.jobs[4]);
  EXPECT_EQ(shed.code(), robust::StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().shed_queue, 1u);

  server.start();
  for (std::size_t i = 0; i < 4; ++i) server.wait(wave.jobs[i]);
  // The shed job was untouched and is resubmittable once there is room.
  EXPECT_FALSE(wave.jobs[4].done());
  ASSERT_TRUE(server.submit(wave.jobs[4]).ok());
  server.wait(wave.jobs[4]);
  EXPECT_TRUE(wave.jobs[4].result.status.ok());
  server.stop();
}

TEST(Serve, AdmissionShedsOverTheInflightByteCap) {
  serve::ServerConfig cfg;
  cfg.max_inflight_bytes = 1;  // smaller than any workload
  serve::Server server(cfg);

  Wave wave(1, 1100);
  const robust::Status shed = server.submit(wave.jobs[0]);
  EXPECT_EQ(shed.code(), robust::StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().shed_bytes, 1u);
  EXPECT_FALSE(wave.jobs[0].done());
  server.start();
  server.stop();
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(Serve, SteadyStateDispatchRoundIsAllocationFree) {
  const std::size_t nreq = 16;
  serve::ServerConfig cfg;
  cfg.max_batch_requests = 8;
  serve::Server server(cfg);
  Wave wave(nreq, 1300);

  // Warm-up: the first drain sees the whole 16-job backlog (submitted
  // pre-start), so the group scratch reaches its largest shape at once;
  // follow-up waves against the live dispatcher warm the smaller batch
  // compositions the submit/drain race produces.
  for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : wave.jobs) server.wait(job);
  for (int w = 0; w < 6; ++w) {
    for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
    for (auto& job : wave.jobs) server.wait(job);
  }

  const std::size_t allocs = allocations_during([&] {
    for (int w = 0; w < 5; ++w) {
      for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
      for (auto& job : wave.jobs) server.wait(job);
    }
  });
  server.stop();
  EXPECT_EQ(allocs, 0u) << "steady-state submit->dispatch->complete allocated";
  EXPECT_GT(server.stats().max_batch, 1u);
  for (auto& job : wave.jobs) EXPECT_TRUE(job.result.status.ok());
}

// A coalesced Black–Scholes group that fits one engine chunk runs inline
// on the dispatcher thread: no pool run is submitted (the pool's
// parallel-region counter does not move), every member's fused execution
// is one flight-recorder chunk on participant 0, and members still price
// bitwise-identically to solo requests.
TEST(Serve, OneChunkBsGroupsRunInlineOnTheDispatcherAndMatchSolo) {
  engine::ThreadPool pool(3);
  engine::Engine eng(&pool);
  const std::size_t nreq = 12;  // 12 x 64 options: one fused chunk
  Wave served(nreq, 700), solo(nreq, 700);
  for (auto& job : solo.jobs) ASSERT_TRUE(eng.price(job.request).status.ok());

  obs::enable_parallel_timing();
  obs::Counter& regions = obs::counter("parallel.engine.dynamic.regions");
  const std::uint64_t regions0 = regions.value();
  serve::ServerConfig cfg;
  cfg.engine = &eng;
  serve::Server server(cfg);
  for (auto& job : served.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : served.jobs) server.wait(job);
  server.stop();
  obs::enable_parallel_timing(false);

  EXPECT_GT(server.stats().max_batch, 1u);
  EXPECT_EQ(regions.value(), regions0) << "a one-chunk group woke the pool";
  const auto records = obs::flight_recorder().snapshot();
  for (std::size_t i = 0; i < nreq; ++i) {
    const engine::PricingResult& r = served.jobs[i].result;
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_TRUE(bitwise_equal_outputs(served.jobs[i].request.portfolio,
                                      solo.jobs[i].request.portfolio))
        << "member " << i;
    std::size_t chunks = 0;
    for (const auto& fr : records) {
      if (fr.request_id != r.request_id) continue;
      ++chunks;
      EXPECT_EQ(fr.worker, 0) << "member " << i;
    }
    EXPECT_EQ(chunks, 1u) << "member " << i;
  }
}

// The coalescer's fusability check resolves auto intents at the pool size
// of the engine that prices the group, so a server over its own engine
// races (and caches) plans for its own participant count only.
TEST(Serve, FusabilityResolvesAutoIntentsAtTheServersPoolSize) {
  const int shared_threads = engine::Engine::shared().pool_size();
  const int own_threads = shared_threads == 3 ? 2 : 3;
  engine::ThreadPool pool(own_threads);
  engine::Engine eng(&pool);
  tune::PlanCache::instance().clear();

  Wave wave(6, 900);
  for (auto& job : wave.jobs) job.request.kernel_id = "blackscholes.auto";
  serve::ServerConfig cfg;
  cfg.engine = &eng;
  serve::Server server(cfg);
  for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : wave.jobs) server.wait(job);
  server.stop();

  EXPECT_GT(server.stats().max_batch, 1u);
  const engine::PricingRequest& req = wave.jobs[0].request;
  EXPECT_TRUE(tune::PlanCache::instance().find(tune::key_for(req, "bs", own_threads)));
  EXPECT_FALSE(tune::PlanCache::instance().find(tune::key_for(req, "bs", shared_threads)))
      << "fusability raced a plan at the shared engine's " << shared_threads << " threads";
  tune::PlanCache::instance().clear();
}
