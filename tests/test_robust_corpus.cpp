// Adversarial-corpus sweep: every registered variant is priced through the
// engine against poisoned and extreme-but-valid workloads under the default
// robustness settings (sanitize=skip, guard=finite, fallback on). The
// contract under test is uniform across all 35+ variants: the engine never
// throws, never fails the request because of bad input data, and every
// output is either finite or deliberately masked (quiet NaN with the
// option's kFaultSkipped bit set). Degenerate requests (empty workloads,
// unknown kernel ids) fail with structured Status codes, not exceptions.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/robust/robust.hpp"

using namespace finbench;
using engine::Engine;
using engine::Layout;
using engine::PricingRequest;
using engine::PricingResult;
using engine::Registry;
using engine::VariantInfo;
using robust::StatusCode;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kSeed = 9;

bool is_bs(const VariantInfo& v) {
  return v.layout == Layout::kBsAos || v.layout == Layout::kBsSoa ||
         v.layout == Layout::kBsSoaF || v.layout == Layout::kBsBlocked;
}

// Small accuracy knobs: the corpus sweeps every variant, so each pricing
// must be cheap (same spirit as src/engine/validate.cpp).
PricingRequest knobs_for(const VariantInfo& v) {
  PricingRequest req;
  req.kernel_id = v.id;
  req.seed = kSeed;
  req.steps = v.kernel == "cn" ? 64 : 128;
  req.npath = 4096;
  req.cn_num_prices = 65;
  req.bridge_depth = 5;
  return req;
}

// The per-family workload restrictions, mirroring validate.cpp: CN prices
// a handful of mid-vol American options, MC sticks to small batches,
// binomial honors european_only.
std::vector<core::OptionSpec> specs_for(const VariantInfo& v, std::size_t n) {
  core::SingleOptionWorkloadParams p;
  if (v.kernel == "cn") {
    n = std::min<std::size_t>(n, 6);
    p.style = core::ExerciseStyle::kAmerican;
    p.vol_min = 0.2;
    p.vol_max = 0.4;
  } else if (v.kernel == "mc") {
    n = std::min<std::size_t>(n, 12);
  } else {
    n = std::min<std::size_t>(n, 24);
    p.style = v.european_only ? core::ExerciseStyle::kEuropean : core::ExerciseStyle::kAmerican;
  }
  return core::make_option_workload(n, kSeed, p);
}

// Extreme but perfectly valid options: the corpus half that must price
// WITHOUT degradation. Deep in/out of the money, near-instant and
// decade-long expiries, vol/rate at the edges of the sane envelope.
std::vector<core::OptionSpec> extreme_specs(const VariantInfo& v) {
  const bool american = !v.european_only && v.kernel != "mc";
  std::vector<core::OptionSpec> specs(8);
  for (auto& o : specs) {
    o.type = core::OptionType::kPut;
    o.style = american ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
  }
  specs[0].spot = 150.0; specs[0].strike = 50.0;            // deep OTM put
  specs[1].spot = 50.0;  specs[1].strike = 150.0;           // deep ITM put
  specs[2].years = 1.0 / 365.0;                             // one day out
  specs[3].years = 10.0;                                    // decade-dated
  specs[4].vol = 0.01;                                      // near-dead vol
  specs[5].vol = 1.5;                                       // crisis vol
  specs[6].rate = 0.0;   specs[6].dividend = 0.0;           // zero carry
  specs[7].rate = 0.15;                                     // high rates
  if (v.kernel == "cn") {
    // Keep CN inside the regime its wavefront grid is tuned for.
    specs[2].years = 0.25;
    specs[4].vol = 0.15;
    specs[5].vol = 0.6;
    for (auto& o : specs) o.style = core::ExerciseStyle::kAmerican;
  }
  return specs;
}

void expect_outputs_finite_or_masked(const PricingResult& res, const std::string& id) {
  for (std::size_t i = 0; i < res.values.size(); ++i) {
    if (std::isfinite(res.values[i])) continue;
    ASSERT_LT(i, res.option_faults.size()) << id << " value " << i;
    EXPECT_TRUE(res.option_faults[i] & robust::kFaultSkipped)
        << id << ": non-finite value " << i << " without a skip mask";
  }
}

void expect_bs_outputs_finite_or_masked(const core::PortfolioView& view,
                                        const PricingResult& res, const std::string& id) {
  const auto check = [&](std::size_t i, double call, double put) {
    if (std::isfinite(call) && std::isfinite(put)) return;
    ASSERT_LT(i, res.option_faults.size()) << id << " option " << i;
    EXPECT_TRUE(res.option_faults[i] & robust::kFaultSkipped)
        << id << ": non-finite output " << i << " without a skip mask";
  };
  switch (view.layout) {
    case Layout::kBsAos:
      for (std::size_t i = 0; i < view.aos.options.size(); ++i) {
        check(i, view.aos.options[i].call, view.aos.options[i].put);
      }
      break;
    case Layout::kBsSoa:
      for (std::size_t i = 0; i < view.soa.size(); ++i) {
        check(i, view.soa.call[i], view.soa.put[i]);
      }
      break;
    case Layout::kBsSoaF:
      for (std::size_t i = 0; i < view.sp.size(); ++i) {
        check(i, view.sp.call[i], view.sp.put[i]);
      }
      break;
    case Layout::kBsBlocked: {
      const core::BsBlockedView& b = view.blocked;
      for (std::size_t i = 0; i < b.size(); ++i) {
        const std::size_t blk = i / core::kBsBlock;
        const std::size_t ln = i % core::kBsBlock;
        check(i, b.field(blk, 3)[ln], b.field(blk, 4)[ln]);
      }
      break;
    }
    default:
      FAIL() << id << ": not a BS layout";
  }
}

}  // namespace

// Poisoned inputs: ~15% of each variant's canonical workload gets NaN /
// Inf / negative / denormal fields injected, then the batch prices through
// the engine's default skip-and-mask path. The request must come back
// usable for every single variant.
TEST(RobustCorpus, PoisonedWorkloadsDegradeGracefullyOnEveryVariant) {
  robust::FaultPlan plan;
  plan.seed = 21;
  plan.poison = 0.15;

  for (const VariantInfo* vp : Registry::instance().all()) {
    const VariantInfo& v = *vp;
    PricingRequest req = knobs_for(v);
    if (v.layout == Layout::kPaths) continue;  // no option inputs to poison

    PricingResult res;
    if (is_bs(v)) {
      core::Portfolio pf = core::Portfolio::bs(64, v.layout, kSeed);
      const std::size_t poisoned = robust::inject_input_faults(pf.view(), plan);
      ASSERT_GT(poisoned, 0u) << v.id;
      req.portfolio = pf.view();
      res = Engine::shared().price(req);
      ASSERT_TRUE(res.status.ok()) << v.id << ": " << res.status.to_string();
      expect_bs_outputs_finite_or_masked(pf.view(), res, v.id);
    } else {
      auto specs = specs_for(v, 24);
      const std::size_t poisoned =
          robust::inject_input_faults(std::span<core::OptionSpec>(specs), plan);
      req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
      res = Engine::shared().price(req);
      ASSERT_TRUE(res.status.ok()) << v.id << ": " << res.status.to_string();
      if (poisoned > 0) {
        EXPECT_EQ(res.status.code(), StatusCode::kDegraded) << v.id;
        EXPECT_EQ(res.options_skipped, poisoned) << v.id;
      }
      expect_outputs_finite_or_masked(res, v.id);
    }
    EXPECT_TRUE(res.status.ok()) << v.id << ": " << res.status.to_string();
  }
}

// Extreme-but-valid options must price cleanly — the sanitizer's envelope
// is wide on purpose, and stressed-market parameters are not faults.
TEST(RobustCorpus, ExtremeValidOptionsPriceCleanOnSpecsVariants) {
  for (const VariantInfo* vp : Registry::instance().all()) {
    const VariantInfo& v = *vp;
    if (v.layout != Layout::kSpecs) continue;
    PricingRequest req = knobs_for(v);
    const auto specs = extreme_specs(v);
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
    const PricingResult res = Engine::shared().price(req);
    ASSERT_TRUE(res.status.ok()) << v.id << ": " << res.status.to_string();
    EXPECT_EQ(res.options_clamped, 0u) << v.id;
    EXPECT_EQ(res.options_skipped, 0u) << v.id;
    expect_outputs_finite_or_masked(res, v.id);
    // Deterministic pricers must return entirely finite outputs here.
    if (!v.statistical) {
      for (std::size_t i = 0; i < res.values.size(); ++i) {
        EXPECT_TRUE(std::isfinite(res.values[i])) << v.id << " value " << i;
      }
    }
  }
}

// Every hand-crafted poison pattern in one batch, through one deep
// fallback-chained variant per family: the masked options come back NaN,
// the healthy options come back finite, and the mask says exactly which.
TEST(RobustCorpus, HandCraftedPoisonPatternsAreMaskedPerOption) {
  for (const char* id : {"binomial.advanced.auto", "mc.optimized_computed.auto"}) {
    const VariantInfo* v = Registry::instance().find(id);
    ASSERT_NE(v, nullptr) << id;
    auto specs = specs_for(*v, 12);
    ASSERT_GE(specs.size(), 8u);
    specs[0].spot = kNan;
    specs[1].strike = kInf;
    specs[2].years = -0.5;
    specs[3].vol = 0.0;
    specs[4].rate = -kInf;
    specs[5].spot = 1e300;
    specs[6].strike = 5e-324;

    PricingRequest req = knobs_for(*v);
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
    const PricingResult res = Engine::shared().price(req);
    ASSERT_TRUE(res.status.ok()) << id << ": " << res.status.to_string();
    EXPECT_EQ(res.status.code(), StatusCode::kDegraded) << id;
    EXPECT_EQ(res.options_skipped, 7u) << id;
    ASSERT_EQ(res.option_faults.size(), specs.size()) << id;
    ASSERT_EQ(res.values.size(), specs.size()) << id;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (i < 7) {
        EXPECT_TRUE(res.option_faults[i] & robust::kFaultSkipped) << id << " option " << i;
        EXPECT_TRUE(std::isnan(res.values[i])) << id << " option " << i;
      } else {
        EXPECT_EQ(res.option_faults[i], robust::kFaultNone) << id << " option " << i;
        EXPECT_TRUE(std::isfinite(res.values[i])) << id << " option " << i;
      }
    }
  }
}

// Degenerate requests fail with structured codes on every variant — no
// exception escapes the engine for an empty workload or a bogus id.
TEST(RobustCorpus, EmptyWorkloadsAreInvalidArgumentEverywhere) {
  for (const VariantInfo* vp : Registry::instance().all()) {
    const VariantInfo& v = *vp;
    PricingRequest req = knobs_for(v);
    core::Portfolio pf;  // keep backing storage alive through the price call
    if (v.layout == Layout::kPaths) {
      req.portfolio = core::paths_view(0);
    } else if (is_bs(v)) {
      pf = core::Portfolio::bs(0, v.layout, kSeed);
      req.portfolio = pf.view();
    } else {
      req.portfolio = core::view_of(std::span<const core::OptionSpec>{});
    }
    const PricingResult res = Engine::shared().price(req);
    EXPECT_FALSE(res.status.ok()) << v.id;
    EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument) << v.id;
  }
}

TEST(RobustCorpus, UnknownKernelIdIsNotFound) {
  const auto specs = core::make_option_workload(4, kSeed);
  PricingRequest req;
  req.kernel_id = "bs.quantum.avx1024";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  const PricingResult res = Engine::shared().price(req);
  EXPECT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), StatusCode::kNotFound);
}

// Single-option batches exercise the whole-batch path plus every
// tail-handling branch in the SIMD adapters.
TEST(RobustCorpus, SingleOptionBatchesPriceEverywhere) {
  for (const VariantInfo* vp : Registry::instance().all()) {
    const VariantInfo& v = *vp;
    PricingRequest req = knobs_for(v);
    core::Portfolio pf;
    std::vector<core::OptionSpec> specs;
    if (v.layout == Layout::kPaths) {
      req.portfolio = core::paths_view(256);
    } else if (is_bs(v)) {
      pf = core::Portfolio::bs(1, v.layout, kSeed);
      req.portfolio = pf.view();
    } else {
      specs = specs_for(v, 1);
      req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
    }
    const PricingResult res = Engine::shared().price(req);
    ASSERT_TRUE(res.status.ok()) << v.id << ": " << res.status.to_string();
    EXPECT_EQ(res.status.code(), StatusCode::kOk) << v.id;
  }
}
