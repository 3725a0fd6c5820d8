// finbench::resilience contract tests (docs/resilience.md):
//
//   - breaker state machine: trips at trip_ratio after min_samples,
//     half-opens after the backoff, `probes` consecutive kOk close it,
//     a half-open failure re-opens with a doubled backoff
//   - retry budget: token bucket bounds total retries by
//     primaries * tokens_per_request + burst — the amplification cap
//   - decorrelated jitter: bounded by [base, cap], pure function of the
//     caller-owned state word (seed-keyed schedules replay)
//   - brownout ladder: hysteretic step-down/step-up under injected time
//     (no flapping), apply() scales knobs within declared floors only,
//     shed() gates on priority at the top level
//   - chaos: variant-fault injection decisions are deterministic per seed
//   - tune::resolve: a tripped winner is substituted with its fallback
//     chain link (one-shot, not persisted); a reset breaker restores it
//   - serve retry: under a 100%-failure chaos outage total attempts stay
//     inside the budget cap; non-retryable statuses never retry; each
//     coalesced member retries independently with its own counter
//   - serve brownout: opted-in requests complete kDegraded with scaled
//     knobs recorded (steps_applied) and originals restored on the job
//
// Global-state hygiene: every test that touches the BreakerRegistry or
// the chaos fault table restores it (reset + enabled, faults cleared) so
// tests stay order-independent within this binary.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/resilience/breaker.hpp"
#include "finbench/resilience/brownout.hpp"
#include "finbench/resilience/chaos.hpp"
#include "finbench/resilience/retry.hpp"
#include "finbench/robust/fault.hpp"
#include "finbench/serve/server.hpp"
#include "finbench/tune/tuner.hpp"

using namespace finbench;

namespace {

// Restores breaker + chaos globals on scope exit, whatever the test did.
struct ResilienceGlobalsGuard {
  ~ResilienceGlobalsGuard() {
    resilience::clear_variant_faults();
    auto& brk = resilience::BreakerRegistry::instance();
    brk.reset();
    brk.set_config(resilience::BreakerConfig{});
    brk.set_enabled(true);
  }
};

resilience::BreakerConfig fast_breaker() {
  resilience::BreakerConfig cfg;
  cfg.window = 8;
  cfg.min_samples = 4;
  cfg.trip_ratio = 0.5;
  cfg.open_seconds = 0.02;
  cfg.max_open_seconds = 1.0;
  cfg.probes = 2;
  return cfg;
}

}  // namespace

// --- Breaker -----------------------------------------------------------------

TEST(Breaker, TripsHalfOpensAndCloses) {
  resilience::Breaker b("test.variant", fast_breaker());
  EXPECT_EQ(b.state(), resilience::BreakerState::kClosed);
  EXPECT_TRUE(b.available());

  // Below min_samples nothing trips, whatever the ratio.
  b.record(resilience::Outcome::kError);
  b.record(resilience::Outcome::kError);
  b.record(resilience::Outcome::kError);
  EXPECT_EQ(b.state(), resilience::BreakerState::kClosed);

  b.record(resilience::Outcome::kError);  // 4/4 failures >= 0.5 at min_samples
  EXPECT_EQ(b.state(), resilience::BreakerState::kOpen);
  EXPECT_FALSE(b.available());
  EXPECT_FALSE(b.allow());
  {
    const auto s = b.snapshot();
    EXPECT_EQ(s.trips, 1u);
    EXPECT_GE(s.rejected, 1u);
    EXPECT_GT(s.backoff_seconds, 0.0);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // > open_seconds
  EXPECT_TRUE(b.available());  // non-consuming peek
  EXPECT_TRUE(b.allow());      // half-opens, consumes probe 1 of 2
  EXPECT_EQ(b.state(), resilience::BreakerState::kHalfOpen);
  EXPECT_TRUE(b.allow());   // probe 2 of 2
  EXPECT_FALSE(b.allow());  // probe budget spent

  b.record(resilience::Outcome::kOk);
  b.record(resilience::Outcome::kOk);  // `probes` consecutive kOk close it
  EXPECT_EQ(b.state(), resilience::BreakerState::kClosed);
  EXPECT_TRUE(b.allow());
}

TEST(Breaker, HalfOpenFailureReopensWithDoubledBackoff) {
  resilience::Breaker b("test.variant2", fast_breaker());
  for (int i = 0; i < 4; ++i) b.record(resilience::Outcome::kQuarantine);
  ASSERT_EQ(b.state(), resilience::BreakerState::kOpen);
  const double first_backoff = b.snapshot().backoff_seconds;

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(b.allow());  // half-open probe
  b.record(resilience::Outcome::kDeadlineMiss);  // any failure re-opens
  EXPECT_EQ(b.state(), resilience::BreakerState::kOpen);
  const auto s = b.snapshot();
  EXPECT_EQ(s.trips, 2u);
  EXPECT_GT(s.backoff_seconds, first_backoff);

  b.reset();
  EXPECT_EQ(b.state(), resilience::BreakerState::kClosed);
  EXPECT_EQ(b.snapshot().window_samples, 0u);
}

TEST(Breaker, RegistryDisabledPassesAndResetBumpsGeneration) {
  ResilienceGlobalsGuard guard;
  auto& brk = resilience::BreakerRegistry::instance();
  brk.reset();
  brk.set_config(fast_breaker());

  for (int i = 0; i < 4; ++i) brk.record("reg.variant", resilience::Outcome::kError);
  EXPECT_FALSE(brk.available("reg.variant"));
  EXPECT_FALSE(brk.allow("reg.variant"));

  brk.set_enabled(false);  // pricectl --breaker off: everything passes
  EXPECT_TRUE(brk.available("reg.variant"));
  EXPECT_TRUE(brk.allow("reg.variant"));
  brk.record("reg.variant", resilience::Outcome::kError);  // no-op while off
  brk.set_enabled(true);
  EXPECT_FALSE(brk.available("reg.variant"));

  // Unknown ids are available without instantiating a breaker.
  EXPECT_TRUE(brk.available("never.seen.variant"));

  const std::uint64_t gen = brk.generation();
  brk.reset();
  EXPECT_GT(brk.generation(), gen);  // cached Breaker* handles invalidated
  EXPECT_TRUE(brk.available("reg.variant"));
}

// --- Retry building blocks ---------------------------------------------------

TEST(RetryBudget, AmplificationBoundedByPrimariesAndBurst) {
  resilience::RetryBudget budget;
  budget.configure(0.25, 2.0);

  // 40 primaries at 0.25 tokens each + a burst of 2 can never fund more
  // than 12 retries, no matter how the demand is interleaved.
  int granted = 0;
  for (int i = 0; i < 40; ++i) {
    budget.on_primary();
    for (int r = 0; r < 3; ++r) {  // every primary wants 3 retries
      if (budget.try_acquire()) ++granted;
    }
  }
  EXPECT_LE(granted, 12);
  EXPECT_GE(granted, 1);

  // on_primary clamps at burst: an idle stretch cannot bank a retry storm.
  resilience::RetryBudget idle;
  idle.configure(1.0, 2.0);
  for (int i = 0; i < 100; ++i) idle.on_primary();
  EXPECT_LE(idle.available(), 2.0);
}

TEST(RetryJitter, DecorrelatedJitterIsBoundedAndDeterministic) {
  const double base = 0.001, cap = 0.100;
  std::uint64_t s1 = 42, s2 = 42;
  double prev1 = 0.0, prev2 = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double b1 = resilience::decorrelated_jitter(s1, base, cap, prev1);
    const double b2 = resilience::decorrelated_jitter(s2, base, cap, prev2);
    EXPECT_EQ(b1, b2) << "same state word must replay the same schedule";
    EXPECT_GE(b1, base);
    EXPECT_LE(b1, cap);
    prev1 = b1;
    prev2 = b2;
  }
  // A different stream decorrelates.
  std::uint64_t s3 = 43;
  double prev3 = 0.0;
  int diffs = 0;
  std::uint64_t s4 = 42;
  double prev4 = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double a = resilience::decorrelated_jitter(s4, base, cap, prev4);
    const double b = resilience::decorrelated_jitter(s3, base, cap, prev3);
    if (a != b) ++diffs;
    prev4 = a;
    prev3 = b;
  }
  EXPECT_GT(diffs, 32);
}

// --- Brownout ladder ---------------------------------------------------------

namespace {

resilience::BrownoutConfig ladder_cfg() {
  resilience::BrownoutConfig cfg;
  cfg.queue_p99_seconds = 0.010;
  cfg.miss_ratio = 0.10;
  cfg.step_up_fraction = 0.5;
  cfg.sample_horizon_seconds = 0.5;
  cfg.eval_interval_seconds = 0.010;
  cfg.dwell_seconds = 0.020;
  cfg.up_dwell_seconds = 0.050;
  cfg.up_healthy_evals = 3;
  cfg.max_level = 3;
  cfg.min_samples = 4;
  return cfg;
}

}  // namespace

TEST(Brownout, HystereticLadderStepsDownAndRecoversWithoutFlapping) {
  resilience::Brownout bo(ladder_cfg());
  ASSERT_EQ(bo.level(), 0);

  // Sustained overload: queue delays 5x the threshold. The ladder steps
  // one level per dwell period, never past max_level.
  double t = 1.0;
  for (int e = 0; e < 30; ++e, t += 0.010) {
    for (int k = 0; k < 4; ++k) bo.on_complete(0.050, false, t);
    bo.evaluate(t);
  }
  EXPECT_EQ(bo.level(), 3);
  const auto mid = bo.snapshot();
  EXPECT_EQ(mid.transitions, 3u) << "one transition per level, dwell-gated";
  EXPECT_GT(mid.queue_p99_seconds, 0.010);

  // More overload at the cap: no further transitions (no flapping).
  for (int e = 0; e < 10; ++e, t += 0.010) {
    for (int k = 0; k < 4; ++k) bo.on_complete(0.050, false, t);
    bo.evaluate(t);
  }
  EXPECT_EQ(bo.snapshot().transitions, 3u);

  // Recovery: jump past the sample horizon so overload-era delays go
  // stale, then feed healthy completions. Step-up needs up_healthy_evals
  // consecutive healthy windows AND up_dwell at the level.
  t = 2.0;
  for (int e = 0; e < 80 && bo.level() > 0; ++e, t += 0.010) {
    for (int k = 0; k < 4; ++k) bo.on_complete(0.001, false, t);
    bo.evaluate(t);
  }
  EXPECT_EQ(bo.level(), 0);
  const auto end = bo.snapshot();
  EXPECT_EQ(end.transitions, 6u) << "3 down + 3 up, no oscillation";
  EXPECT_LT(end.queue_p99_seconds, 0.005);
}

TEST(Brownout, ApplyScalesWithinDeclaredFloorsAndShedGatesOnPriority) {
  resilience::BrownoutConfig cfg = ladder_cfg();
  cfg.min_samples = 1;
  cfg.dwell_seconds = 0.0;
  cfg.shed_below_priority = 2;
  resilience::Brownout bo(cfg);

  resilience::DegradePolicy opted;
  opted.min_npath_fraction = 0.25;
  opted.min_steps_fraction = 0.25;
  const resilience::DegradePolicy locked;  // defaults: floors 1.0

  // L0: apply touches nothing.
  std::size_t npath = 16384;
  int steps = 1024;
  EXPECT_FALSE(bo.apply(opted, npath, steps));
  EXPECT_EQ(npath, 16384u);
  EXPECT_EQ(steps, 1024);

  double t = 1.0;
  auto step_down = [&] {
    bo.on_complete(0.050, false, t);
    bo.evaluate(t);
    t += 0.010;
  };

  step_down();  // L1: halve, bounded below by the floor
  ASSERT_EQ(bo.level(), 1);
  npath = 16384;
  steps = 1024;
  EXPECT_TRUE(bo.apply(opted, npath, steps));
  EXPECT_EQ(npath, 8192u);
  EXPECT_EQ(steps, 512);

  step_down();  // L2: the declared floor
  ASSERT_EQ(bo.level(), 2);
  npath = 16384;
  steps = 1024;
  EXPECT_TRUE(bo.apply(opted, npath, steps));
  EXPECT_EQ(npath, 4096u);
  EXPECT_EQ(steps, 256);

  // A request that never opted in is never touched, at any level.
  npath = 16384;
  steps = 1024;
  EXPECT_FALSE(bo.apply(locked, npath, steps));
  EXPECT_EQ(npath, 16384u);
  EXPECT_EQ(steps, 1024);

  // Shedding is L3-only and priority-gated.
  EXPECT_FALSE(bo.shed(0)) << "not at max level yet";
  step_down();  // L3
  ASSERT_EQ(bo.level(), 3);
  EXPECT_TRUE(bo.shed(0));
  EXPECT_TRUE(bo.shed(1));
  EXPECT_FALSE(bo.shed(2)) << "priority >= shed_below_priority survives";
}

// --- Chaos -------------------------------------------------------------------

TEST(Chaos, VariantFaultDecisionsAreDeterministicPerSeed) {
  ResilienceGlobalsGuard guard;
  constexpr const char* kVariant = "chaos.test.variant";

  EXPECT_FALSE(resilience::chaos_active());

  robust::FaultPlan plan;
  plan.seed = 7;
  plan.throw_rate = 0.5;

  auto sample = [&] {
    std::vector<std::uint8_t> hits;
    hits.reserve(64 * 4);
    for (std::uint64_t req = 0; req < 64; ++req) {
      for (std::uint64_t chunk = 0; chunk < 4; ++chunk) {
        bool threw = false;
        try {
          resilience::maybe_inject(kVariant, req, chunk);
        } catch (const robust::InjectedKernelFault&) {
          threw = true;
        }
        hits.push_back(threw ? 1 : 0);
      }
    }
    return hits;
  };

  resilience::set_variant_fault(kVariant, plan);
  EXPECT_TRUE(resilience::chaos_active());
  const auto first = sample();

  resilience::clear_variant_faults();
  EXPECT_FALSE(resilience::chaos_active());

  resilience::set_variant_fault(kVariant, plan);
  const auto second = sample();
  EXPECT_EQ(first, second) << "same seed must replay the same injections";

  const int hits = std::accumulate(first.begin(), first.end(), 0);
  EXPECT_GT(hits, 64) << "throw_rate 0.5 over 256 decisions";
  EXPECT_LT(hits, 192);

  // A fault bound to another variant never fires here.
  resilience::clear_variant_faults();
  resilience::set_variant_fault("some.other.variant", plan);
  EXPECT_TRUE(resilience::chaos_active());
  EXPECT_NO_THROW(resilience::maybe_inject(kVariant, 1, 1));
}

// --- tune::resolve + breakers ------------------------------------------------

TEST(TuneResolve, TrippedWinnerIsSubstitutedAndRecoversAfterReset) {
  ResilienceGlobalsGuard guard;
  auto& brk = resilience::BreakerRegistry::instance();
  brk.reset();
  brk.set_config(resilience::BreakerConfig{});  // defaults: 8 samples trip
  brk.set_enabled(true);

  engine::Engine& eng = engine::Engine::shared();
  core::Portfolio pf = core::Portfolio::bs(32, core::Layout::kBsAos, 7);

  // Seed the plan cache with a winner that has a fallback chain. A raced
  // winner is host- and load-dependent: under a slow build the race can
  // pick bs.reference.scalar, which ends the chain, so nothing could be
  // substituted below.
  constexpr const char* kSeeded = "bs.advanced_vml.auto";
  const engine::VariantInfo* seeded = engine::Registry::instance().find(kSeeded);
  ASSERT_NE(seeded, nullptr);
  ASSERT_FALSE(seeded->fallback_id.empty());
  {
    engine::PricingRequest req;
    req.kernel_id = "bs.auto";
    req.portfolio = pf.view();
    tune::RaceReport report;
    report.key = tune::key_for(req, "bs", eng.pool_size());
    report.winner.variant_id = kSeeded;
    tune::PlanCache::instance().put(report.key, report);
  }

  // Prime: resolve bs.auto so the engine dispatches the cached winner.
  std::string winner;
  {
    engine::PricingRequest req;
    req.kernel_id = "bs.auto";
    req.portfolio = pf.view();
    const engine::PricingResult res = eng.price(req);
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    ASSERT_FALSE(res.resolved_id.empty());
    winner = res.resolved_id;
  }

  // Trip the winner's breaker: tune::resolve must hand out a fallback
  // chain link instead of the cached plan.
  for (int i = 0; i < 8; ++i) brk.record(winner, resilience::Outcome::kError);
  ASSERT_FALSE(brk.available(winner));
  {
    engine::PricingRequest req;
    req.kernel_id = "bs.auto";
    req.portfolio = pf.view();
    const engine::PricingResult res = eng.price(req);
    EXPECT_TRUE(res.status.ok()) << res.status.to_string();
    EXPECT_NE(res.resolved_id, winner)
        << "auto dispatch kept routing to a tripped variant";
    EXPECT_FALSE(res.resolved_id.empty());
  }

  // Substitution is one-shot: a reset breaker restores the tuned winner.
  brk.reset();
  {
    engine::PricingRequest req;
    req.kernel_id = "bs.auto";
    req.portfolio = pf.view();
    const engine::PricingResult res = eng.price(req);
    EXPECT_TRUE(res.status.ok()) << res.status.to_string();
    EXPECT_EQ(res.resolved_id, winner);
  }
}

// --- Serve retry -------------------------------------------------------------

namespace {

constexpr const char* kServeKernel = "bs.blocked_fused_sp.auto";

struct ServeWave {
  std::vector<core::Portfolio> pfs;
  std::vector<serve::PricingJob> jobs;

  explicit ServeWave(std::size_t nreq, std::uint64_t seed0 = 500) : jobs(nreq) {
    pfs.reserve(nreq);
    for (std::size_t i = 0; i < nreq; ++i) {
      pfs.push_back(core::Portfolio::bs(16, core::Layout::kBsAos, seed0 + i));
      jobs[i].request.kernel_id = kServeKernel;
      jobs[i].request.portfolio = pfs.back().view();
      jobs[i].request.fallback = false;  // chaos throws surface as kKernelError
    }
  }
};

}  // namespace

TEST(ServeRetry, TotalFailureAmplificationStaysInsideTheBudgetCap) {
  ResilienceGlobalsGuard guard;
  robust::FaultPlan poison;
  poison.seed = 11;
  poison.throw_rate = 1.0;  // every chunk of every attempt throws
  resilience::set_variant_fault(kServeKernel, poison);

  constexpr std::size_t kJobs = 40;
  ServeWave wave(kJobs);
  for (auto& job : wave.jobs) {
    job.request.retry.max_attempts = 4;
    job.request.retry.base_backoff_seconds = 0.0002;
    job.request.retry.max_backoff_seconds = 0.002;
  }

  serve::ServerConfig cfg;
  cfg.coalesce = false;
  cfg.brownout.enabled = false;
  cfg.retry_tokens_per_request = 0.25;
  cfg.retry_burst = 2.0;
  serve::Server server(cfg);
  for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : wave.jobs) server.wait(job);
  server.stop();

  const serve::Server::Stats st = server.stats();
  // The anti-amplification contract: primaries * tokens + burst.
  EXPECT_LE(st.retries, static_cast<std::uint64_t>(kJobs * 0.25 + 2.0));
  EXPECT_GE(st.retries, 1u) << "the budget should fund at least the burst";
  EXPECT_GE(st.retry_denied, 1u) << "demand (3 per job) must exceed the cap";

  std::uint64_t attempts = 0;
  for (const auto& job : wave.jobs) {
    EXPECT_EQ(job.result.status.code(), robust::StatusCode::kKernelError)
        << job.result.status.to_string();
    EXPECT_GE(job.result.attempts, 1);
    EXPECT_LE(job.result.attempts, 4);
    attempts += static_cast<std::uint64_t>(job.result.attempts);
  }
  EXPECT_EQ(attempts, kJobs + st.retries)
      << "every retry must show up in exactly one job's attempt count";
}

TEST(ServeRetry, NonRetryableStatusesNeverRetry) {
  ServeWave wave(2);
  // Job 0 expires in the queue (kDeadlineExceeded: the budget is gone,
  // retrying cannot help). Job 1 completes clean (kOk: done).
  wave.jobs[0].request.deadline_seconds = 1e-9;
  for (auto& job : wave.jobs) job.request.retry.max_attempts = 4;

  serve::ServerConfig cfg;
  cfg.coalesce = false;
  cfg.brownout.enabled = false;
  serve::Server server(cfg);
  for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : wave.jobs) server.wait(job);
  server.stop();

  EXPECT_EQ(wave.jobs[0].result.status.code(), robust::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(wave.jobs[0].result.attempts, 1);
  EXPECT_EQ(wave.jobs[1].result.status.code(), robust::StatusCode::kOk)
      << wave.jobs[1].result.status.to_string();
  EXPECT_EQ(wave.jobs[1].result.attempts, 1);
  EXPECT_EQ(server.stats().retries, 0u);
}

TEST(ServeRetry, CoalescedMembersRetryIndependently) {
  ResilienceGlobalsGuard guard;
  robust::FaultPlan poison;
  poison.seed = 13;
  poison.throw_rate = 1.0;
  resilience::set_variant_fault(kServeKernel, poison);

  constexpr std::size_t kJobs = 4;
  ServeWave wave(kJobs);
  for (auto& job : wave.jobs) {
    job.request.retry.max_attempts = 3;
    job.request.retry.base_backoff_seconds = 0.0002;
    job.request.retry.max_backoff_seconds = 0.002;
  }

  serve::ServerConfig cfg;
  cfg.coalesce = true;
  cfg.brownout.enabled = false;
  cfg.retry_tokens_per_request = 1.0;  // generous: every retry funded
  cfg.retry_burst = 16.0;
  serve::Server server(cfg);
  // Whole wave pre-start: the first drain fuses the backlog.
  for (auto& job : wave.jobs) ASSERT_TRUE(server.submit(job).ok());
  server.start();
  for (auto& job : wave.jobs) server.wait(job);
  server.stop();

  const serve::Server::Stats st = server.stats();
  EXPECT_GE(st.max_batch, 2u) << "the failing wave never coalesced";
  for (const auto& job : wave.jobs) {
    EXPECT_EQ(job.result.status.code(), robust::StatusCode::kKernelError)
        << job.result.status.to_string();
    // Per-member attempt counters: one bad group member cannot spend its
    // batch mates' attempts, and everyone runs to their own cap.
    EXPECT_EQ(job.result.attempts, 3);
  }
  EXPECT_EQ(st.retries, kJobs * 2u);
}

// --- Serve brownout ----------------------------------------------------------

TEST(ServeBrownout, OptedInRequestsCompleteDegradedWithKnobsRestored) {
  constexpr std::size_t kSeed = 4;   // completions that feed the ladder
  constexpr std::size_t kMain = 20;  // jobs priced after the step-down
  constexpr int kSteps = 1024;

  std::vector<std::vector<core::OptionSpec>> books;
  std::vector<core::Portfolio> pfs;
  std::vector<serve::PricingJob> jobs(kSeed + kMain);
  books.reserve(jobs.size());
  pfs.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    books.push_back(core::make_option_workload(16, 900 + i));
    pfs.push_back(core::Portfolio::specs(std::span<const core::OptionSpec>(books.back())));
    auto& req = jobs[i].request;
    req.kernel_id = "binomial.intermediate.auto";
    req.portfolio = pfs.back().view();
    req.steps = kSteps;
    req.degrade.min_steps_fraction = 0.25;
  }

  serve::ServerConfig cfg;
  cfg.coalesce = false;  // completions trickle, so the ladder moves mid-stream
  cfg.brownout.enabled = true;
  cfg.brownout.queue_p99_seconds = 1e-9;  // any queue wait reads as overload
  cfg.brownout.miss_ratio = 1.0;          // miss signal out of the picture
  cfg.brownout.eval_interval_seconds = 1e-6;
  cfg.brownout.dwell_seconds = 0.0;
  cfg.brownout.up_dwell_seconds = 10.0;  // no step-up inside this test
  cfg.brownout.up_healthy_evals = 1000;
  cfg.brownout.max_level = 2;
  cfg.brownout.min_samples = 2;
  serve::Server server(cfg);
  server.start();

  // Seed wave first: its completions populate the delay window, and the
  // dispatcher's next evaluation steps the ladder down.
  for (std::size_t i = 0; i < kSeed; ++i) ASSERT_TRUE(server.submit(jobs[i]).ok());
  for (std::size_t i = 0; i < kSeed; ++i) server.wait(jobs[i]);
  for (std::size_t i = kSeed; i < jobs.size(); ++i) ASSERT_TRUE(server.submit(jobs[i]).ok());
  for (std::size_t i = kSeed; i < jobs.size(); ++i) server.wait(jobs[i]);

  const auto snap = server.brownout_snapshot();
  server.stop();

  EXPECT_GE(snap.transitions, 1u) << "the ladder never stepped down";
  std::size_t degraded = 0;
  for (const auto& job : jobs) {
    ASSERT_TRUE(job.result.status.ok()) << job.result.status.to_string();
    EXPECT_EQ(job.request.steps, kSteps) << "original knobs must be restored";
    if (job.result.brownout_level > 0) {
      ++degraded;
      EXPECT_EQ(job.result.status.code(), robust::StatusCode::kDegraded);
      EXPECT_GT(job.result.steps_applied, 0);
      EXPECT_LT(job.result.steps_applied, kSteps);
      EXPECT_GE(job.result.steps_applied, kSteps / 4)
          << "degradation must respect the declared floor";
    } else {
      EXPECT_EQ(job.result.steps_applied, 0);
    }
  }
  EXPECT_GE(degraded, 1u) << "no opted-in request was browned out";
}
