// Tests for finbench::robust and its integration into the pricing engine:
// the Status taxonomy, the workload sanitizer (policies, per-option fault
// masks, in-place BS repair, shared-parameter faults), output guardrails
// and scalar repair, the deterministic fault-injection plans, cooperative
// deadlines/cancellation, and the engine-level contracts — poisoned inputs
// degrade one pricing instead of taking the batch down, quarantined chunks
// re-price through the fallback chain, and expired deadlines yield partial
// results with per-chunk status.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/obs/flight_recorder.hpp"
#include "finbench/obs/json.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/resilience/chaos.hpp"
#include "finbench/robust/robust.hpp"

using namespace finbench;
using engine::Engine;
using engine::ChunkStatus;
using engine::PricingRequest;
using engine::PricingResult;
using engine::Registry;
using robust::FaultPlan;
using robust::GuardMode;
using robust::SanitizePolicy;
using robust::Status;
using robust::StatusCode;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<core::OptionSpec> european_workload(std::size_t n, std::uint64_t seed) {
  core::SingleOptionWorkloadParams p;
  p.style = core::ExerciseStyle::kEuropean;
  return core::make_option_workload(n, seed, p);
}

std::uint64_t counter_value(const char* name) {
  for (const auto& [n, v] : obs::snapshot_metrics().counters) {
    if (n == name) return v;
  }
  return 0;
}

// Option i of a BS view with the batch's shared scalars, as the spec the
// per-option classifier takes.
core::OptionSpec bs_option(const core::PortfolioView& v, std::size_t i) {
  const core::BsLane l = core::bs_lane(v, i);
  const core::BsScalars s = core::bs_scalars(v);
  core::OptionSpec o;
  o.spot = l.spot;
  o.strike = l.strike;
  o.years = l.years;
  o.rate = s.rate;
  o.vol = s.vol;
  o.dividend = s.dividend;
  return o;
}

}  // namespace

// --- Status / Expected ------------------------------------------------------

TEST(Status, DefaultIsOkAndDegradedIsStillOk) {
  Status s;
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(s.degraded());
  EXPECT_EQ(s.to_string(), "ok");

  const Status d = Status::degraded("bent but usable");
  EXPECT_TRUE(d.ok());
  EXPECT_TRUE(d.degraded());
  EXPECT_EQ(d.to_string(), "degraded: bent but usable");

  for (const Status& bad :
       {Status::invalid_argument("a"), Status::invalid_input("b"), Status::not_found("c"),
        Status::deadline_exceeded("d"), Status::kernel_error("e")}) {
    EXPECT_FALSE(bad.ok()) << bad.to_string();
  }
}

TEST(Status, ResetAndSetReuseTheMessageStorage) {
  Status s = Status::kernel_error("boom");
  s.reset();
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
  s.set(StatusCode::kDeadlineExceeded, "too slow");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.message(), "too slow");
}

TEST(Expected, CarriesAValueOrTheExplainingStatus) {
  robust::Expected<int> good(7);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good.value(), 7);
  EXPECT_TRUE(good.status().ok());

  robust::Expected<int> bad(Status::invalid_argument("nope"));
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(42), 42);
}

// --- Sanitizer --------------------------------------------------------------

TEST(Sanitize, ClassifyFlagsEachFaultClass) {
  core::OptionSpec clean;
  EXPECT_EQ(robust::classify(clean), robust::kFaultNone);

  core::OptionSpec o = clean;
  o.spot = kNan;
  EXPECT_TRUE(robust::classify(o) & robust::kFaultNonFinite);
  o = clean;
  o.strike = kInf;
  EXPECT_TRUE(robust::classify(o) & robust::kFaultNonFinite);
  o = clean;
  o.vol = -0.3;
  EXPECT_TRUE(robust::classify(o) & robust::kFaultDomain);
  o = clean;
  o.years = 0.0;
  EXPECT_TRUE(robust::classify(o) & robust::kFaultDomain);
  o = clean;
  o.rate = 3.5;  // |r| > 100%
  EXPECT_TRUE(robust::classify(o) & robust::kFaultDomain);
  o = clean;
  o.spot = 1e17;  // absurd magnitude
  EXPECT_TRUE(robust::classify(o) & robust::kFaultMagnitude);
  o = clean;
  o.spot = 5e-324;  // denormal
  EXPECT_TRUE(robust::classify(o) & robust::kFaultMagnitude);
}

TEST(Sanitize, SpecsCopyAppliesClampAndSkipPolicies) {
  std::vector<core::OptionSpec> src(4);
  src[1].vol = -0.4;   // finite domain fault: clampable
  src[2].spot = kNan;  // non-finite: never clampable
  std::vector<core::OptionSpec> dst(src.size());

  robust::SanitizeReport rep;
  robust::sanitize_specs(src, dst, SanitizePolicy::kClamp, rep);
  EXPECT_EQ(rep.scanned, 4u);
  EXPECT_EQ(rep.faulty, 2u);
  EXPECT_EQ(rep.clamped, 1u);
  EXPECT_EQ(rep.skipped, 1u);  // the NaN demotes to skip even under clamp
  ASSERT_EQ(rep.mask.size(), 4u);
  EXPECT_EQ(rep.mask[0], robust::kFaultNone);
  EXPECT_TRUE(rep.mask[1] & robust::kFaultClamped);
  EXPECT_TRUE(rep.mask[2] & robust::kFaultSkipped);
  EXPECT_GT(dst[1].vol, 0.0);                  // repaired into the envelope
  EXPECT_TRUE(std::isfinite(dst[2].spot));     // placeholder, not NaN
  EXPECT_EQ(dst[0].spot, src[0].spot);         // clean options copy through

  robust::sanitize_specs(src, dst, SanitizePolicy::kSkip, rep);
  EXPECT_EQ(rep.skipped, 2u);
  EXPECT_EQ(rep.clamped, 0u);
  EXPECT_TRUE(rep.mask[1] & robust::kFaultSkipped);
}

TEST(Sanitize, BsBatchIsRepairedInPlaceThroughTheMutableView) {
  core::Portfolio book = core::Portfolio::bs(16, core::Layout::kBsSoa, 3);
  core::PortfolioView view = book.view();
  const core::BsSoaView& soa = view.soa;
  soa.spot[2] = kNan;
  soa.years[5] = -2.0;

  robust::SanitizeReport rep;
  robust::sanitize(view, SanitizePolicy::kSkip, rep);
  EXPECT_EQ(rep.scanned, 16u);
  EXPECT_EQ(rep.faulty, 2u);
  EXPECT_EQ(rep.skipped, 2u);
  ASSERT_EQ(rep.mask.size(), 16u);
  EXPECT_TRUE(rep.mask[2] & robust::kFaultSkipped);
  EXPECT_TRUE(rep.mask[5] & robust::kFaultSkipped);
  // The spans are mutable by design: the placeholder lands in the arrays,
  // so the kernel never sees the poison.
  EXPECT_TRUE(std::isfinite(soa.spot[2]));
  EXPECT_GT(soa.years[5], 0.0);
}

TEST(Sanitize, NonFiniteSharedVolSkipsTheWholeBsBatch) {
  core::Portfolio book = core::Portfolio::bs(8, core::Layout::kBsSoa, 4);
  core::PortfolioView view = book.view();
  view.soa.vol = kNan;  // batch-shared parameter: poisons every option

  robust::SanitizeReport rep;
  robust::sanitize(view, SanitizePolicy::kSkip, rep);
  EXPECT_EQ(rep.faulty, 8u);
  EXPECT_EQ(rep.skipped, 8u);
  EXPECT_TRUE(std::isfinite(view.soa.vol));  // placeholder so the kernel runs
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(rep.mask[i] & robust::kFaultSkipped) << i;
  }
}

TEST(Sanitize, FiniteSharedRateClampsWithoutSkipping) {
  core::Portfolio book = core::Portfolio::bs(8, core::Layout::kBsSoa, 4);
  core::PortfolioView view = book.view();
  view.soa.rate = 2.5;  // finite but outside |r| <= 1

  robust::SanitizeReport rep;
  robust::sanitize(view, SanitizePolicy::kClamp, rep);
  EXPECT_EQ(rep.faulty, 8u);
  EXPECT_EQ(rep.clamped, 8u);
  EXPECT_EQ(rep.skipped, 0u);
  EXPECT_LE(std::abs(view.soa.rate), 1.0);
}

TEST(Sanitize, ZeroNegativeAndNanInputsAreFlaggedInEveryBsLayout) {
  // The range scan's branch-free clean test must hand zero, negative and
  // NaN inputs to the per-option classifier in every layout, and the
  // verdicts are exactly classify()'s.
  for (const core::Layout layout : {core::Layout::kBsAos, core::Layout::kBsSoa,
                                    core::Layout::kBsSoaF, core::Layout::kBsBlocked}) {
    core::Portfolio pf = core::Portfolio::bs(37, layout, 9);
    const core::PortfolioView& view = pf.view();
    core::set_bs_inputs(view, 3, 0.0, 100.0, 1.0);
    core::set_bs_inputs(view, 20, 100.0, -5.0, 1.0);
    core::set_bs_inputs(view, 36, kNan, 100.0, 1.0);
    const std::string what(core::to_string(layout));

    robust::SanitizeReport rep;
    robust::sanitize_range(view, robust::kFaultNone, SanitizePolicy::kReject, rep);
    ASSERT_EQ(rep.mask.size(), view.size()) << what;
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(rep.mask[i], robust::classify(bs_option(view, i))) << what << " option " << i;
    }
    EXPECT_EQ(rep.faulty, 3u) << what;
    EXPECT_TRUE(rep.mask[3] & robust::kFaultDomain) << what;
    EXPECT_TRUE(rep.mask[20] & robust::kFaultDomain) << what;
    EXPECT_TRUE(rep.mask[36] & robust::kFaultNonFinite) << what;
  }
}

// --- Guards -----------------------------------------------------------------

TEST(Guards, FiniteModeCatchesNanAndExemptsMaskedOptions) {
  const auto specs = european_workload(4, 11);
  std::vector<double> values{1.0, kNan, 2.0, kNan};
  std::vector<std::uint8_t> mask{0, 0, 0, robust::kFaultSkipped};

  robust::GuardPolicy policy;  // kFinite
  std::size_t first = 99;
  const std::size_t bad = robust::guard_specs_range(
      std::span<const core::OptionSpec>(specs), values, policy, /*statistical=*/false, mask, 0,
      &first);
  EXPECT_EQ(bad, 1u);   // values[3] is a deliberate masked-out NaN
  EXPECT_EQ(first, 1u);
}

TEST(Guards, FullModeEnforcesNoArbitrageBoundsForDeterministicPricers) {
  std::vector<core::OptionSpec> specs(1);  // ATM call, S=K=100, T=1
  std::vector<double> values{250.0};       // call > S e^{-qT}: impossible
  robust::GuardPolicy policy;
  policy.mode = GuardMode::kFull;

  EXPECT_EQ(robust::guard_specs_range(std::span<const core::OptionSpec>(specs), values, policy,
                                      /*statistical=*/false, {}, 0),
            1u);
  // The same value passes for a statistical estimator (bounds off) and
  // under finiteness-only mode.
  EXPECT_EQ(robust::guard_specs_range(std::span<const core::OptionSpec>(specs), values, policy,
                                      /*statistical=*/true, {}, 0),
            0u);
  policy.mode = GuardMode::kFinite;
  EXPECT_EQ(robust::guard_specs_range(std::span<const core::OptionSpec>(specs), values, policy,
                                      /*statistical=*/false, {}, 0),
            0u);
  // A sane price passes kFull.
  values[0] = core::black_scholes(100.0, 100.0, 1.0, 0.05, 0.2, 0.0).call;
  policy.mode = GuardMode::kFull;
  EXPECT_EQ(robust::guard_specs_range(std::span<const core::OptionSpec>(specs), values, policy,
                                      /*statistical=*/false, {}, 0),
            0u);
}

TEST(Guards, BsRepairReplacesViolatingOutputsWithTheClosedForm) {
  core::Portfolio book = core::Portfolio::bs(8, core::Layout::kBsSoa, 7);
  const core::PortfolioView view = book.view();
  const core::BsSoaView& soa = view.soa;
  // Pretend the kernel produced garbage for two options.
  soa.call[1] = kNan;
  soa.put[6] = -kInf;

  robust::GuardPolicy policy;  // kFinite
  const std::size_t repaired = robust::guard_and_repair_bs(view, policy, {});
  EXPECT_EQ(repaired, 2u);
  const core::BsPrice want1 = core::black_scholes(soa.spot[1], soa.strike[1], soa.years[1],
                                                  soa.rate, soa.vol, soa.dividend);
  EXPECT_DOUBLE_EQ(soa.call[1], want1.call);
  EXPECT_TRUE(std::isfinite(soa.put[6]));
}

// --- Fault plans ------------------------------------------------------------

TEST(FaultPlan, DecisionsAreDeterministicAndSiteSeparated) {
  FaultPlan plan;
  plan.seed = 42;
  // Same (site, index, rate) always agrees with itself.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(plan.hits(1, i, 0.3), plan.hits(1, i, 0.3)) << i;
  }
  // Different sites draw from different streams: the hit sets must differ
  // somewhere over a reasonable index range.
  bool differs = false;
  for (std::uint64_t i = 0; i < 256 && !differs; ++i) {
    differs = plan.hits(1, i, 0.3) != plan.hits(2, i, 0.3);
  }
  EXPECT_TRUE(differs);
  // Rate 0 never hits, rate 1 always hits.
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_FALSE(plan.hits(0, i, 0.0));
    EXPECT_TRUE(plan.hits(0, i, 1.0));
  }
}

TEST(FaultPlan, SpecStringRoundTripsAndRejectsGarbage) {
  const auto plan = FaultPlan::parse("seed=7,poison=0.01,corrupt=0.002,throw=0.1,slow=0.05,slow_ms=30");
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->poison, 0.01);
  EXPECT_DOUBLE_EQ(plan->corrupt, 0.002);
  EXPECT_DOUBLE_EQ(plan->throw_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan->slow, 0.05);
  EXPECT_DOUBLE_EQ(plan->slow_ms, 30.0);
  EXPECT_TRUE(plan->any());
  EXPECT_TRUE(plan->any_engine_side());

  const auto again = FaultPlan::parse(plan->to_spec());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->to_spec(), plan->to_spec());

  for (const char* bad : {"frobnicate=1", "poison", "poison=abc", "poison=0.1,,corrupt=0.2"}) {
    const auto rej = FaultPlan::parse(bad);
    EXPECT_FALSE(rej.has_value()) << bad;
    EXPECT_EQ(rej.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(FaultPlan, InputPoisoningIsDeterministicAndCounted) {
  FaultPlan plan;
  plan.seed = 5;
  plan.poison = 0.25;
  auto a = european_workload(64, 2);
  auto b = a;
  const std::size_t na = robust::inject_input_faults(std::span<core::OptionSpec>(a), plan);
  const std::size_t nb = robust::inject_input_faults(std::span<core::OptionSpec>(b), plan);
  EXPECT_EQ(na, nb);
  EXPECT_GT(na, 0u);
  std::size_t faulty = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(robust::classify(a[i]), robust::classify(b[i])) << i;
    if (robust::classify(a[i]) != robust::kFaultNone) ++faulty;
  }
  EXPECT_EQ(faulty, na);
}

// --- CancelToken ------------------------------------------------------------

TEST(CancelToken, CancellationAndDeadlinesExpireTheToken) {
  robust::CancelToken t;
  EXPECT_FALSE(t.expired());
  t.cancel();
  EXPECT_TRUE(t.expired());
  t.reset();
  EXPECT_FALSE(t.expired());

  t.set_deadline_after(-1.0);  // <= 0 clears
  EXPECT_FALSE(t.expired());
  t.set_deadline_after(1e-9);
  // A nanosecond deadline is in the past by the time we poll.
  EXPECT_TRUE(t.expired());
  t.reset();
  EXPECT_FALSE(t.expired());
}

TEST(CancelToken, ParentExpiryPropagates) {
  robust::CancelToken parent, child;
  child.set_parent(&parent);
  EXPECT_FALSE(child.expired());
  parent.cancel();
  EXPECT_TRUE(child.expired());
  child.reset();  // reset keeps the parent link
  EXPECT_TRUE(child.expired());
}

// --- Engine integration -----------------------------------------------------

TEST(EngineRobust, CleanRunIsOkWithNoRobustnessResidue) {
  const auto workload = european_workload(24, 13);
  PricingRequest req;
  req.kernel_id = "binomial.intermediate.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 64;
  const PricingResult res = Engine::shared().price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.status.code(), StatusCode::kOk);
  EXPECT_TRUE(res.option_faults.empty());
  EXPECT_EQ(res.options_skipped, 0u);
  EXPECT_EQ(res.chunks_degraded, 0u);
  for (std::uint8_t s : res.chunk_status) {
    EXPECT_EQ(static_cast<ChunkStatus>(s), ChunkStatus::kOk);
  }
}

TEST(EngineRobust, SkipPolicyMasksPoisonedOptionsAndPricesTheRest) {
  auto workload = european_workload(24, 13);
  workload[3].vol = kNan;
  workload[7].years = -1.0;

  PricingRequest req;
  req.kernel_id = "binomial.intermediate.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 64;  // default sanitize = kSkip
  const PricingResult res = Engine::shared().price(req);

  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.status.code(), StatusCode::kDegraded);
  EXPECT_EQ(res.options_skipped, 2u);
  ASSERT_EQ(res.option_faults.size(), 24u);
  EXPECT_TRUE(res.option_faults[3] & robust::kFaultSkipped);
  EXPECT_TRUE(res.option_faults[7] & robust::kFaultSkipped);
  ASSERT_EQ(res.values.size(), 24u);
  EXPECT_TRUE(std::isnan(res.values[3]));
  EXPECT_TRUE(std::isnan(res.values[7]));

  // Every healthy option prices exactly as it would in a clean batch.
  auto clean = european_workload(24, 13);
  PricingRequest cleanreq = req;
  cleanreq.portfolio = core::view_of(std::span<const core::OptionSpec>(clean));
  cleanreq.scratch.reset();
  const PricingResult want = Engine::shared().price(cleanreq);
  ASSERT_TRUE(want.status.ok());
  for (std::size_t i = 0; i < 24; ++i) {
    if (i == 3 || i == 7) continue;
    EXPECT_EQ(res.values[i], want.values[i]) << i;
  }
}

TEST(EngineRobust, RejectPolicyFailsTheRequestWithTheFaultMask) {
  auto workload = european_workload(8, 13);
  workload[5].spot = kInf;

  PricingRequest req;
  req.kernel_id = "binomial.intermediate.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.sanitize = SanitizePolicy::kReject;
  const PricingResult res = Engine::shared().price(req);

  EXPECT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), StatusCode::kInvalidInput);
  ASSERT_EQ(res.option_faults.size(), 8u);
  EXPECT_TRUE(res.option_faults[5] & robust::kFaultNonFinite);
  EXPECT_TRUE(res.values.empty());  // nothing was priced
}

TEST(EngineRobust, OffPolicyReproducesTheRawBenchmarkBehavior) {
  auto workload = european_workload(16, 13);
  workload[2].vol = kNan;

  PricingRequest req;
  req.kernel_id = "binomial.reference.scalar";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.sanitize = SanitizePolicy::kOff;
  req.guard.mode = GuardMode::kOff;
  req.fallback = false;
  req.steps = 32;
  const PricingResult res = Engine::shared().price(req);
  // Garbage in, garbage out — but the engine itself never fails.
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.status.code(), StatusCode::kOk);
  EXPECT_TRUE(std::isnan(res.values[2]));
}

TEST(EngineRobust, CorruptedBsOutputsAreRepairedByTheGuard) {
  core::Portfolio pf = core::Portfolio::bs(256, engine::Layout::kBsSoa, 5);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = pf.view();
  req.faults.seed = 9;
  req.faults.corrupt = 0.05;
  const PricingResult res = Engine::shared().price(req);

  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.status.code(), StatusCode::kDegraded);
  EXPECT_GT(res.options_repaired, 0u);
  const core::PortfolioView& view = pf.view();
  for (std::size_t i = 0; i < view.soa.size(); ++i) {
    EXPECT_TRUE(std::isfinite(view.soa.call[i])) << i;
    EXPECT_TRUE(std::isfinite(view.soa.put[i])) << i;
  }
}

TEST(EngineRobust, InjectedChunkThrowsFallBackToTheChain) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);

  const auto workload = european_workload(64, 17);
  PricingRequest req;
  req.kernel_id = "binomial.advanced.auto";  // chain: -> intermediate -> reference
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 64;
  req.chunks_per_thread = 4;
  req.faults.seed = 3;
  req.faults.throw_rate = 1.0;  // every chunk throws before its kernel runs
  const PricingResult res = eng.price(req);

  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.status.code(), StatusCode::kDegraded);
  EXPECT_EQ(res.chunks_failed, 0u);
  EXPECT_GT(res.chunks_degraded, 0u);
  EXPECT_EQ(res.chunks_degraded, res.chunk_status.size());
  for (std::uint8_t s : res.chunk_status) {
    EXPECT_EQ(static_cast<ChunkStatus>(s), ChunkStatus::kDegraded);
  }

  // The fallback chain starts at the registered fallback variant, so the
  // repaired values are exactly binomial.intermediate.auto's.
  PricingRequest want_req = req;
  want_req.kernel_id = "binomial.intermediate.auto";
  want_req.faults = {};
  want_req.scratch.reset();
  const PricingResult want = eng.price(want_req);
  ASSERT_TRUE(want.status.ok());
  ASSERT_EQ(res.values.size(), want.values.size());
  for (std::size_t i = 0; i < res.values.size(); ++i) {
    EXPECT_EQ(res.values[i], want.values[i]) << i;
  }
}

TEST(EngineRobust, FallbackDisabledSurfacesTheKernelError) {
  const auto workload = european_workload(32, 17);
  PricingRequest req;
  req.kernel_id = "binomial.advanced.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 64;
  req.fallback = false;
  req.faults.throw_rate = 1.0;
  const PricingResult res = Engine::shared().price(req);

  EXPECT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), StatusCode::kKernelError);
  EXPECT_NE(res.status.message().find("injected kernel fault"), std::string::npos)
      << res.status.message();
  EXPECT_GT(res.chunks_failed, 0u);
  for (double v : res.values) EXPECT_TRUE(std::isnan(v));
}

TEST(EngineRobust, DeadlineYieldsPartialResultsWithPerChunkStatus) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);

  const auto workload = european_workload(64, 19);
  PricingRequest req;
  req.kernel_id = "binomial.intermediate.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 64;
  req.chunks_per_thread = 8;  // many cheap chunks
  req.faults.seed = 1;
  req.faults.slow = 1.0;  // every chunk sleeps...
  req.faults.slow_ms = 50.0;
  req.deadline_seconds = 0.005;  // ...and the deadline expires during the first

  const PricingResult res = eng.price(req);
  EXPECT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(res.chunks_deadline, 0u);
  EXPECT_LT(res.items, workload.size());

  std::size_t ran = 0, skipped = 0;
  ASSERT_FALSE(res.chunk_status.empty());
  for (std::uint8_t s : res.chunk_status) {
    const auto st = static_cast<ChunkStatus>(s);
    if (st == ChunkStatus::kOk) ++ran;
    if (st == ChunkStatus::kDeadline) ++skipped;
  }
  EXPECT_GE(ran, 1u);  // each participant finishes the chunk it had claimed
  EXPECT_GE(skipped, 1u);
  // Unpriced ranges hold quiet NaN, priced ranges hold finite values.
  std::size_t finite = 0, nan = 0;
  for (double v : res.values) (std::isfinite(v) ? finite : nan)++;
  EXPECT_EQ(finite, res.items);
  EXPECT_EQ(nan, workload.size() - res.items);

  // The flight recorder saw the whole story: one record per executed
  // chunk, one per deadline-skipped chunk, all under this request's id —
  // and an on-demand dump names the unpriced item ranges.
  std::size_t flight_ok = 0, flight_deadline = 0;
  for (const auto& r : obs::flight_recorder().snapshot()) {
    if (r.request_id != res.request_id) continue;
    if (std::string_view(r.status) == "ok") ++flight_ok;
    if (std::string_view(r.status) == "deadline") ++flight_deadline;
  }
  EXPECT_EQ(flight_ok, ran);
  EXPECT_EQ(flight_deadline, skipped);

  const std::string dump_path = ::testing::TempDir() + "robust_flight_dump.json";
  ASSERT_TRUE(obs::write_flight_dump(dump_path, "deadline_test"));
  const auto doc = obs::json::parse_file(dump_path);
  EXPECT_EQ(doc.at("schema").string, "finbench.flight_dump/v1");
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("last_request_id").number), res.request_id);
  const auto& unpriced = doc.at("unpriced_ranges").array;
  ASSERT_EQ(unpriced.size(), skipped);
  std::size_t unpriced_items = 0;
  for (const auto& range : unpriced) {
    ASSERT_EQ(range.array.size(), 2u);
    const auto begin = static_cast<std::size_t>(range.array[0].number);
    const auto end = static_cast<std::size_t>(range.array[1].number);
    ASSERT_LT(begin, end);
    unpriced_items += end - begin;
    // Every item of a dumped unpriced range really is unpriced (NaN).
    for (std::size_t i = begin; i < end; ++i) EXPECT_TRUE(std::isnan(res.values[i])) << i;
  }
  EXPECT_EQ(unpriced_items, workload.size() - res.items);
  std::remove(dump_path.c_str());
}

// A group deadline that expires mid-fused-batch is scattered per member:
// a member whose whole slice priced before the expiry completes clean;
// a member whose slice never ran keeps kDeadlineExceeded with its NaN
// partial values disclosed. Deterministic by construction: an inline
// single-participant pool runs the two 16-item chunks sequentially, and a
// variant-scoped chaos slow fault makes chunk 0 outlast the deadline so
// chunk 1 (= member B's slice) is skipped at the boundary.
TEST(EngineRobust, GroupDeadlineScattersPartialStatusPerMember) {
  engine::ThreadPool pool(1);  // inline: chunks run sequentially
  Engine eng(&pool);

  const auto book_a = european_workload(16, 23);
  const auto book_b = european_workload(16, 29);
  PricingRequest req_a, req_b;
  PricingResult res_a, res_b;
  for (auto* r : {&req_a, &req_b}) {
    r->kernel_id = "binomial.intermediate.auto";
    r->steps = 64;
    r->chunks_per_thread = 2;  // 2 chunks of 16 = one chunk per member
  }
  req_a.portfolio = core::view_of(std::span<const core::OptionSpec>(book_a));
  req_b.portfolio = core::view_of(std::span<const core::OptionSpec>(book_b));
  ASSERT_TRUE(eng.fusable(req_a, req_b));

  FaultPlan slow;
  slow.seed = 31;
  slow.slow = 1.0;  // every chunk of the variant sleeps...
  slow.slow_ms = 40.0;
  resilience::set_variant_fault("binomial.intermediate.auto", slow);

  engine::GroupScratch gs;
  gs.deadline_seconds = 0.020;  // ...and the budget dies inside chunk 0
  const engine::GroupJob group[] = {{&req_a, &res_a}, {&req_b, &res_b}};
  eng.price_group(group, gs);
  resilience::clear_variant_faults();

  // Member A: its chunk had started before the expiry and ran to the end.
  EXPECT_TRUE(res_a.status.ok()) << res_a.status.to_string();
  EXPECT_EQ(res_a.status.code(), StatusCode::kOk);
  EXPECT_EQ(res_a.items, book_a.size());
  ASSERT_EQ(res_a.values.size(), book_a.size());
  for (double v : res_a.values) EXPECT_TRUE(std::isfinite(v));

  // Member B: its slice was skipped at the chunk boundary — partial
  // status, zero priced items, NaN values disclosed for inspection.
  EXPECT_FALSE(res_b.status.ok());
  EXPECT_EQ(res_b.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(res_b.chunks_deadline, 1u);
  EXPECT_EQ(res_b.items, 0u);
  ASSERT_EQ(res_b.values.size(), book_b.size());
  for (double v : res_b.values) EXPECT_TRUE(std::isnan(v));

  // Both members came out of the same fused execution.
  EXPECT_EQ(res_a.request_id, res_b.request_id);
  EXPECT_EQ(res_a.resolved_id, res_b.resolved_id);
}

// The Black–Scholes scatter follows the same per-member rule: a member
// whose slice priced before the group deadline completes clean with its
// prices written back; a member whose chunks were skipped reports the
// deadline and gets NaN, not the stale prices its arrays held before —
// what pricing it alone leaves behind. One participant runs the fused
// book's four 1024-option chunks in order, and a variant-scoped slow
// fault makes chunk 0 (= member A) outlast the budget.
TEST(EngineRobust, GroupDeadlineScattersBlackScholesMembersFromTheirChunks) {
  engine::ThreadPool pool(1);
  Engine eng(&pool);

  core::Portfolio book_a = core::Portfolio::bs(1024, core::Layout::kBsAos, 41);
  core::Portfolio book_b = core::Portfolio::bs(3072, core::Layout::kBsAos, 43);
  for (core::Portfolio* pf : {&book_a, &book_b}) {
    for (std::size_t i = 0; i < pf->size(); ++i) {
      core::set_bs_outputs(pf->view(), i, 123.0, 123.0);
    }
  }
  PricingRequest req_a, req_b;
  PricingResult res_a, res_b;
  req_a.kernel_id = req_b.kernel_id = "bs.reference.scalar";
  req_a.portfolio = book_a.view();
  req_b.portfolio = book_b.view();
  ASSERT_TRUE(eng.fusable(req_a, req_b));

  FaultPlan slow;
  slow.seed = 31;
  slow.slow = 1.0;  // every chunk of the variant sleeps...
  slow.slow_ms = 40.0;
  resilience::set_variant_fault("bs.reference.scalar", slow);
  engine::GroupScratch gs;
  gs.deadline_seconds = 0.020;  // ...and the budget dies inside chunk 0
  const engine::GroupJob group[] = {{&req_a, &res_a}, {&req_b, &res_b}};
  eng.price_group(group, gs);
  resilience::clear_variant_faults();
  ASSERT_EQ(gs.fused_res.chunk_status.size(), 4u);
  ASSERT_EQ(static_cast<ChunkStatus>(gs.fused_res.chunk_status[0]), ChunkStatus::kOk);

  // Member A: priced by chunk 0, bit for bit what it prices alone.
  EXPECT_EQ(res_a.status.code(), StatusCode::kOk) << res_a.status.to_string();
  EXPECT_EQ(res_a.items, 1024u);
  EXPECT_EQ(res_a.chunks_deadline, 0u);
  core::Portfolio solo_a = core::Portfolio::bs(1024, core::Layout::kBsAos, 41);
  PricingRequest solo;
  solo.kernel_id = "bs.reference.scalar";
  solo.portfolio = solo_a.view();
  ASSERT_TRUE(eng.price(solo).status.ok());
  for (std::size_t i = 0; i < book_a.size(); ++i) {
    const core::BsLane got = core::bs_lane(book_a.view(), i);
    const core::BsLane want = core::bs_lane(solo_a.view(), i);
    ASSERT_TRUE(got.call == want.call && got.put == want.put) << i;
  }

  // Member B: all three of its chunks were skipped.
  EXPECT_EQ(res_b.status.code(), StatusCode::kDeadlineExceeded) << res_b.status.to_string();
  EXPECT_EQ(res_b.items, 0u);
  EXPECT_EQ(res_b.chunks_deadline, 3u);
  for (std::size_t i = 0; i < book_b.size(); ++i) {
    const core::BsLane got = core::bs_lane(book_b.view(), i);
    ASSERT_TRUE(std::isnan(got.call) && std::isnan(got.put)) << i;
  }
}

TEST(EngineRobust, PreCancelledTokenPricesNothing) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);

  const auto workload = european_workload(32, 23);
  robust::CancelToken token;
  token.cancel();
  PricingRequest req;
  req.kernel_id = "binomial.intermediate.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 32;
  req.cancel = &token;
  const PricingResult res = eng.price(req);

  EXPECT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(res.items, 0u);
  for (double v : res.values) EXPECT_TRUE(std::isnan(v));
}

TEST(EngineRobust, InjectionEventsLandInTheObsCounters) {
  const std::uint64_t thrown0 = counter_value("robust.inject.thrown");
  const std::uint64_t fallback0 = counter_value("robust.fallback.chunks");

  const auto workload = european_workload(32, 29);
  PricingRequest req;
  req.kernel_id = "binomial.advanced.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps = 32;
  req.faults.throw_rate = 1.0;
  ASSERT_TRUE(Engine::shared().price(req).status.ok());

  EXPECT_GT(counter_value("robust.inject.thrown"), thrown0);
  EXPECT_GT(counter_value("robust.fallback.chunks"), fallback0);
}

// --- Black–Scholes chunk pipeline ---------------------------------------------
//
// Books large enough to span several chunks on a 4-participant pool; the
// sanitizer, guard and fault-injection semantics must be those of one
// per-option pass over the whole book, whatever the chunking.

namespace {

constexpr std::size_t kBookN = 4999;  // several chunks, ragged SIMD tail

// Fault bits of every option of a BS view, from the per-option classifier
// (the reference the chunked scans must reproduce).
std::vector<std::uint8_t> expected_faults(const core::PortfolioView& v) {
  std::vector<std::uint8_t> bits(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) bits[i] = robust::classify(bs_option(v, i));
  return bits;
}

core::Portfolio poisoned_book(core::Layout layout) {
  core::Portfolio pf = core::Portfolio::bs(kBookN, layout, 61);
  FaultPlan plan;
  plan.seed = 5;
  plan.poison = 0.02;
  robust::inject_input_faults(pf.view(), plan);
  return pf;
}

}  // namespace

TEST(BsChunkPipeline, SanitizePoliciesMatchThePerOptionScan) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (const core::Layout layout : {core::Layout::kBsAos, core::Layout::kBsSoa,
                                    core::Layout::kBsSoaF, core::Layout::kBsBlocked}) {
    for (const char* id : {"bs.intermediate.auto", "bs.blocked.auto"}) {
      for (const SanitizePolicy policy :
           {SanitizePolicy::kSkip, SanitizePolicy::kClamp, SanitizePolicy::kReject}) {
        const std::string what = std::string(id) + " from " +
                                 std::string(core::to_string(layout)) + " under " +
                                 std::string(robust::to_string(policy));
        core::Portfolio pf = poisoned_book(layout);
        const core::PortfolioView& view = pf.view();
        const std::vector<std::uint8_t> want = expected_faults(view);
        const std::size_t nfaulty =
            static_cast<std::size_t>(std::count_if(want.begin(), want.end(),
                                                   [](std::uint8_t b) { return b != 0; }));
        ASSERT_GT(nfaulty, 0u);
        for (std::size_t i = 0; i < kBookN; ++i) core::set_bs_outputs(view, i, -7.0, -7.0);

        PricingRequest req;
        req.kernel_id = id;
        req.portfolio = view;
        req.sanitize = policy;
        const PricingResult res = eng.price(req);
        ASSERT_GT(res.chunk_status.size(), 1u) << what;
        ASSERT_EQ(res.option_faults.size(), kBookN) << what;

        if (policy == SanitizePolicy::kReject) {
          EXPECT_EQ(res.status.code(), StatusCode::kInvalidInput) << what;
          EXPECT_EQ(res.options_skipped + res.options_clamped, 0u) << what;
          for (std::size_t i = 0; i < kBookN; ++i) {
            ASSERT_EQ(res.option_faults[i], want[i]) << what << " option " << i;
            const core::BsLane e = core::bs_lane(view, i);
            ASSERT_TRUE(e.call == -7.0 && e.put == -7.0)
                << what << ": rejection wrote option " << i;
          }
          continue;
        }

        EXPECT_EQ(res.status.code(), StatusCode::kDegraded) << what;
        std::size_t skipped = 0, clamped = 0;
        for (std::size_t i = 0; i < kBookN; ++i) {
          const core::BsLane e = core::bs_lane(view, i);
          if (want[i] == 0) {
            ASSERT_EQ(res.option_faults[i], 0u) << what << " option " << i;
            ASSERT_TRUE(std::isfinite(e.call) && std::isfinite(e.put)) << what << " option " << i;
            continue;
          }
          const bool skip =
              policy == SanitizePolicy::kSkip || (want[i] & robust::kFaultNonFinite) != 0;
          const std::uint8_t flag = skip ? robust::kFaultSkipped : robust::kFaultClamped;
          ASSERT_EQ(res.option_faults[i], want[i] | flag) << what << " option " << i;
          if (skip) {
            ++skipped;
            ASSERT_TRUE(std::isnan(e.call) && std::isnan(e.put)) << what << " option " << i;
          } else {
            ++clamped;
            ASSERT_TRUE(std::isfinite(e.call) && std::isfinite(e.put)) << what << " option " << i;
          }
        }
        EXPECT_EQ(res.options_skipped, skipped) << what;
        EXPECT_EQ(res.options_clamped, clamped) << what;
        EXPECT_EQ(skipped + clamped, nfaulty) << what;
      }
    }
  }
}

// A chunk's kernel runs before its sanitize scan, so every registered BS
// kernel sees raw poison first (as under sanitize = kOff) and the chunk is
// priced again once the scan repaired it. The outputs must be bit for bit
// those of sanitizing the whole book first and pricing the repaired copy.
TEST(BsChunkPipeline, EveryVariantPricesAPoisonedBookAsIfSanitizedFirst) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (const engine::VariantInfo* v : Registry::instance().all()) {
    if (v->kernel != "bs") continue;
    for (const core::Layout layout : {core::Layout::kBsAos, core::Layout::kBsSoa,
                                      core::Layout::kBsSoaF, core::Layout::kBsBlocked}) {
      for (const SanitizePolicy policy : {SanitizePolicy::kSkip, SanitizePolicy::kClamp}) {
        const std::string what = v->id + " from " + std::string(core::to_string(layout)) +
                                 " under " + std::string(robust::to_string(policy));
        core::Portfolio pf = poisoned_book(layout);
        PricingRequest req;
        req.kernel_id = v->id;
        req.portfolio = pf.view();
        req.sanitize = policy;
        const PricingResult res = eng.price(req);
        ASSERT_EQ(res.status.code(), StatusCode::kDegraded) << what << ": "
                                                            << res.status.to_string();

        core::Portfolio ref_pf = poisoned_book(layout);
        core::PortfolioView ref = ref_pf.view();
        robust::SanitizeReport rep;
        robust::sanitize(ref, policy, rep);
        PricingRequest ref_req;
        ref_req.kernel_id = v->id;
        ref_req.portfolio = ref;
        ref_req.sanitize = SanitizePolicy::kOff;
        ASSERT_TRUE(eng.price(ref_req).status.ok()) << what;
        ASSERT_EQ(rep.mask.size(), kBookN) << what;

        const core::PortfolioView& got = pf.view();
        for (std::size_t i = 0; i < kBookN; ++i) {
          if (rep.mask[i] & robust::kFaultSkipped) core::set_bs_outputs(ref, i, kNan, kNan);
          const core::BsLane g = core::bs_lane(got, i), w = core::bs_lane(ref, i);
          ASSERT_EQ(std::memcmp(&g.call, &w.call, sizeof g.call), 0) << what << " option " << i;
          ASSERT_EQ(std::memcmp(&g.put, &w.put, sizeof g.put), 0) << what << " option " << i;
        }
      }
    }
  }
}

TEST(BsChunkPipeline, FaultySharedVolFlagsEveryOption) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (const SanitizePolicy policy : {SanitizePolicy::kSkip, SanitizePolicy::kReject}) {
    core::Portfolio pf = core::Portfolio::bs(kBookN, core::Layout::kBsAos, 67);
    core::PortfolioView view = pf.view();
    view.aos.vol = kNan;
    PricingRequest req;
    req.kernel_id = "bs.blocked_fused_sp.auto";
    req.portfolio = view;
    req.sanitize = policy;
    const PricingResult res = eng.price(req);
    ASSERT_EQ(res.option_faults.size(), kBookN);
    for (std::size_t i = 0; i < kBookN; ++i) {
      ASSERT_TRUE(res.option_faults[i] & robust::kFaultNonFinite) << i;
    }
    if (policy == SanitizePolicy::kReject) {
      EXPECT_EQ(res.status.code(), StatusCode::kInvalidInput);
    } else {
      EXPECT_EQ(res.status.code(), StatusCode::kDegraded);
      EXPECT_EQ(res.options_skipped, kBookN);
      for (const core::BsOptionAos& o : view.aos.options) {
        ASSERT_TRUE(std::isnan(o.call) && std::isnan(o.put));
      }
    }
  }
}

TEST(BsChunkPipeline, CorruptChoosesTheSameOptionsWhateverTheChunking) {
  FaultPlan plan;
  plan.seed = 9;
  plan.corrupt = 0.05;
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < kBookN; ++i) {
    if (plan.hits(1, i, plan.corrupt)) want.push_back(i);
  }
  ASSERT_FALSE(want.empty());
  for (const int participants : {1, 2, 4}) {
    engine::ThreadPool pool(participants);
    Engine eng(&pool);
    for (const int cpt : {1, 8}) {
      core::Portfolio pf = core::Portfolio::bs(kBookN, core::Layout::kBsSoa, 71);
      PricingRequest req;
      req.kernel_id = "bs.intermediate.auto";
      req.portfolio = pf.view();
      req.chunks_per_thread = cpt;
      req.guard.mode = GuardMode::kOff;  // keep the injected NaNs visible
      req.faults = plan;
      const PricingResult res = eng.price(req);
      ASSERT_TRUE(res.status.ok()) << res.status.to_string();
      std::vector<std::size_t> got;
      const core::PortfolioView& view = pf.view();
      for (std::size_t i = 0; i < kBookN; ++i) {
        if (std::isnan(view.soa.call[i])) got.push_back(i);
        ASSERT_TRUE(std::isfinite(view.soa.put[i])) << i;
      }
      EXPECT_EQ(got, want) << participants << " participant(s), chunks_per_thread=" << cpt
                           << " (" << res.chunk_status.size() << " chunks)";
    }
  }
}

TEST(BsChunkPipeline, ThrowingChunksFallBackChunkByChunk) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);
  core::Portfolio pf = core::Portfolio::bs(kBookN, core::Layout::kBsBlocked, 73);
  core::Portfolio want_pf = core::Portfolio::bs(kBookN, core::Layout::kBsBlocked, 73);
  PricingRequest req;
  req.kernel_id = "bs.blocked_sp.auto";  // chain: -> bs.blocked.auto (DP, same layout)
  req.portfolio = pf.view();
  req.faults.seed = 3;
  req.faults.throw_rate = 1.0;  // every chunk throws before its kernel runs
  const PricingResult res = eng.price(req);
  ASSERT_EQ(res.status.code(), StatusCode::kDegraded) << res.status.to_string();
  ASSERT_GT(res.chunk_status.size(), 1u);
  EXPECT_EQ(res.chunks_degraded, res.chunk_status.size());
  EXPECT_EQ(res.items, kBookN);
  EXPECT_EQ(res.options_repaired, 0u);

  PricingRequest want_req;
  want_req.kernel_id = "bs.blocked.auto";
  want_req.portfolio = want_pf.view();
  ASSERT_TRUE(eng.price(want_req).status.ok());
  for (std::size_t i = 0; i < kBookN; ++i) {
    const core::BsLane got = core::bs_lane(pf.view(), i);
    const core::BsLane want = core::bs_lane(want_pf.view(), i);
    ASSERT_TRUE(got.call == want.call && got.put == want.put) << i;
  }

  // The chain ends at the scalar closed form, repairing every option: the
  // DP blocked kernel's reference link is AOS, off the chunk's layout,
  // and the reference itself has nothing left to fall back to.
  for (const core::Layout layout : {core::Layout::kBsBlocked, core::Layout::kBsAos}) {
    const char* id = layout == core::Layout::kBsBlocked ? "bs.blocked.auto" : "bs.reference.scalar";
    core::Portfolio book = core::Portfolio::bs(kBookN, layout, 73);
    req.kernel_id = id;
    req.portfolio = book.view();
    req.scratch.reset();
    const PricingResult term = eng.price(req);
    ASSERT_EQ(term.status.code(), StatusCode::kDegraded) << id << ": " << term.status.to_string();
    EXPECT_EQ(term.chunks_degraded, term.chunk_status.size()) << id;
    EXPECT_EQ(term.options_repaired, kBookN) << id;
    const core::BsScalars sc = core::bs_scalars(book.view());
    for (std::size_t i = 0; i < kBookN; ++i) {
      const core::BsLane o = core::bs_lane(book.view(), i);
      const core::BsPrice p =
          core::black_scholes(o.spot, o.strike, o.years, sc.rate, sc.vol, sc.dividend);
      ASSERT_EQ(o.call, p.call) << id << " " << i;
      ASSERT_EQ(o.put, p.put) << id << " " << i;
    }
  }
}

TEST(BsChunkPipeline, DeadlineLeavesPerChunkStatusAndNanForUnpricedChunks) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);
  core::Portfolio pf = core::Portfolio::bs(20000, core::Layout::kBsAos, 79);
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";  // negotiated: AOS -> SOA tiles
  req.portfolio = pf.view();
  req.faults.seed = 1;
  req.faults.slow = 1.0;  // every chunk sleeps...
  req.faults.slow_ms = 40.0;
  req.deadline_seconds = 0.010;  // ...and the deadline expires during the first
  const PricingResult res = eng.price(req);
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_GT(res.chunk_status.size(), 2u);
  std::size_t ran = 0, skipped = 0;
  for (std::uint8_t s : res.chunk_status) {
    if (static_cast<ChunkStatus>(s) == ChunkStatus::kOk) ++ran;
    if (static_cast<ChunkStatus>(s) == ChunkStatus::kDeadline) ++skipped;
  }
  EXPECT_GE(ran, 1u);
  EXPECT_GE(skipped, 1u);
  EXPECT_EQ(res.chunks_deadline, skipped);
  std::size_t finite = 0;
  for (const core::BsOptionAos& o : pf.view().aos.options) {
    if (std::isfinite(o.call) && std::isfinite(o.put)) {
      ++finite;
    } else {
      ASSERT_TRUE(std::isnan(o.call) && std::isnan(o.put));
    }
  }
  EXPECT_EQ(finite, res.items);
  EXPECT_LT(res.items, pf.size());
}
