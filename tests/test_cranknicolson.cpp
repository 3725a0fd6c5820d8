// Tests for the Crank–Nicolson / PSOR kernel (Fig. 8): the Thomas-solver
// European baseline against analytic Black–Scholes, the PSOR American
// solution against high-resolution binomial pricing, and equivalence of
// the wavefront-vectorized GSOR variants with the scalar blocked solver,
// and the Brennan–Schwartz direct American solver against PSOR.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/kernels/cranknicolson.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

core::OptionSpec am_put(double s = 100, double k = 100, double t = 1, double r = 0.05,
                        double v = 0.2) {
  return {s, k, t, r, v, core::OptionType::kPut, core::ExerciseStyle::kAmerican};
}

cn::GridSpec small_grid() {
  cn::GridSpec g;
  g.num_prices = 257;
  g.num_steps = 200;
  return g;
}

TEST(CrankNicolson, ThomasEuropeanMatchesBlackScholes) {
  for (auto type : {core::OptionType::kPut, core::OptionType::kCall}) {
    core::OptionSpec o = am_put(100, 105, 1.0, 0.05, 0.25);
    o.type = type;
    o.style = core::ExerciseStyle::kEuropean;
    cn::GridSpec g;
    g.num_prices = 513;
    g.num_steps = 400;
    const double pde = cn::price_european_thomas(o, g);
    const double exact = core::black_scholes_price(o);
    EXPECT_NEAR(pde, exact, 2e-3 * std::max(1.0, exact)) << static_cast<int>(type);
  }
}

TEST(CrankNicolson, ThomasConvergesWithRefinement) {
  core::OptionSpec o = am_put(95, 100, 0.5, 0.04, 0.3);
  o.style = core::ExerciseStyle::kEuropean;
  const double exact = core::black_scholes_price(o);
  double prev_err = 1e9;
  for (int m : {65, 129, 257, 513}) {
    cn::GridSpec g;
    g.num_prices = m;
    g.num_steps = m;
    const double err = std::fabs(cn::price_european_thomas(o, g) - exact);
    EXPECT_LT(err, prev_err) << m;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-3);
}

TEST(CrankNicolson, AmericanPutMatchesBinomial) {
  const core::OptionSpec o = am_put();
  cn::GridSpec g;
  g.num_prices = 513;
  g.num_steps = 500;
  const double pde = cn::price_reference(o, g).price;
  const double lattice = binomial::price_one_reference(o, 4096);
  EXPECT_NEAR(pde, lattice, 5e-3 * lattice);
}

TEST(CrankNicolson, AmericanPutWorthAtLeastEuropeanAndIntrinsic) {
  for (double spot : {80.0, 95.0, 110.0}) {
    const core::OptionSpec o = am_put(spot, 100, 1.5, 0.06, 0.3);
    const cn::GridSpec g = small_grid();
    const double am = cn::price_reference(o, g).price;
    core::OptionSpec eu = o;
    eu.style = core::ExerciseStyle::kEuropean;
    const double euro = core::black_scholes_price(eu);
    EXPECT_GE(am, euro - 2e-3) << spot;
    EXPECT_GE(am, std::max(100.0 - spot, 0.0) - 1e-6) << spot;
  }
}

TEST(CrankNicolson, EuropeanPutSkipsEarlyExerciseInEveryVariant) {
  // Every registered cn.* variant and the paper's wavefront levels (Fig. 8
  // rows, through the batch driver), on the exotic_book grid (129 x 128):
  // a European put prices near the closed form and strictly below the
  // same put with early exercise (deep in the money, where exercise pays).
  std::vector<core::OptionSpec> eu, am;
  for (double spot : {80.0, 100.0, 120.0}) {
    core::OptionSpec o = am_put(spot, 110, 1.5, 0.05, 0.3);
    am.push_back(o);
    o.style = core::ExerciseStyle::kEuropean;
    eu.push_back(o);
  }
  cn::GridSpec grid;
  grid.num_prices = 129;
  grid.num_steps = 128;
  int variants = 0;
  const auto check = [&](const std::string& name, auto&& price) {
    ++variants;
    const std::vector<double> pe = price(eu), pa = price(am);
    ASSERT_EQ(pe.size(), eu.size()) << name;
    ASSERT_EQ(pa.size(), am.size()) << name;
    for (std::size_t i = 0; i < eu.size(); ++i) {
      EXPECT_NEAR(pe[i], core::black_scholes_price(eu[i]), 0.05) << name << " spot "
                                                                 << eu[i].spot;
      EXPECT_LT(pe[i], pa[i]) << name << " spot " << eu[i].spot;
    }
  };
  for (const engine::VariantInfo* v : engine::Registry::instance().all()) {
    if (v->kernel != "cn") continue;
    check(v->id, [&](const std::vector<core::OptionSpec>& book) {
      engine::PricingRequest req;
      req.kernel_id = v->id;
      req.portfolio = core::view_of(std::span<const core::OptionSpec>(book));
      req.steps = grid.num_steps;
      req.cn_num_prices = grid.num_prices;
      engine::PricingResult res;
      v->run_batch(req, req.portfolio, res);
      return res.values;
    });
  }
  for (const cn::Variant kv : {cn::Variant::kWavefront, cn::Variant::kWavefrontSplit,
                               cn::Variant::kWavefrontSplitPaired}) {
    check("cn::Variant " + std::to_string(static_cast<int>(kv)),
          [&](const std::vector<core::OptionSpec>& book) {
            std::vector<double> out(book.size());
            cn::price_batch(book, grid, kv, out);
            return out;
          });
  }
  EXPECT_GE(variants, 5);
}

TEST(CrankNicolson, ReferenceIterationCountIsSane) {
  const auto r = cn::price_reference(am_put(), small_grid());
  EXPECT_GT(r.total_iterations, small_grid().num_steps);       // >= 1 per step
  EXPECT_LT(r.total_iterations, 1000L * small_grid().num_steps);  // bounded
}

class CnWidthTest : public ::testing::TestWithParam<cn::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, CnWidthTest,
                         ::testing::Values(cn::Width::kAvx2, cn::Width::kAvx512,
                                           cn::Width::kAuto));

int width_of(cn::Width w) {
  return w == cn::Width::kAvx2 ? 4 : finbench::vecmath::max_width();
}

TEST_P(CnWidthTest, WavefrontMatchesBlockedScalar) {
  const core::OptionSpec o = am_put(100, 110, 1.0, 0.05, 0.25);
  const cn::GridSpec g = small_grid();
  const auto blocked = cn::price_reference_blocked(o, g, width_of(GetParam()));
  const auto wf = cn::price_wavefront(o, g, GetParam());
  EXPECT_NEAR(wf.price, blocked.price, 1e-9 * std::max(1.0, blocked.price));
  // Identical convergence cadence: iteration totals should match almost
  // exactly (FP error-summation order may flip a boundary decision).
  EXPECT_NEAR(static_cast<double>(wf.total_iterations),
              static_cast<double>(blocked.total_iterations),
              0.02 * static_cast<double>(blocked.total_iterations) + 2 * width_of(GetParam()));
}

TEST_P(CnWidthTest, WavefrontSplitMatchesWavefront) {
  const core::OptionSpec o = am_put(90, 100, 2.0, 0.04, 0.35);
  const cn::GridSpec g = small_grid();
  const auto wf = cn::price_wavefront(o, g, GetParam());
  const auto split = cn::price_wavefront_split(o, g, GetParam());
  EXPECT_NEAR(split.price, wf.price, 1e-9 * std::max(1.0, wf.price));
  EXPECT_NEAR(static_cast<double>(split.total_iterations),
              static_cast<double>(wf.total_iterations),
              0.02 * static_cast<double>(wf.total_iterations) + 2 * width_of(GetParam()));
}

TEST_P(CnWidthTest, EvenAndOddGridSizes) {
  // Parity-split bookkeeping differs for even/odd m: both must work.
  for (int m : {64, 65, 128, 129, 255, 256}) {
    const core::OptionSpec o = am_put();
    cn::GridSpec g;
    g.num_prices = m;
    g.num_steps = 50;
    const auto blocked = cn::price_reference_blocked(o, g, width_of(GetParam()));
    const auto split = cn::price_wavefront_split(o, g, GetParam());
    EXPECT_NEAR(split.price, blocked.price, 1e-8 * std::max(1.0, blocked.price)) << "m=" << m;
  }
}

TEST_P(CnWidthTest, AmericanCallHandled) {
  core::OptionSpec o = am_put();
  o.type = core::OptionType::kCall;
  const cn::GridSpec g = small_grid();
  const auto wf = cn::price_wavefront_split(o, g, GetParam());
  // Without dividends the American call equals the European call
  // (tolerance covers the O(dx^2) grid discretization error).
  core::OptionSpec eu = o;
  eu.style = core::ExerciseStyle::kEuropean;
  EXPECT_NEAR(wf.price, core::black_scholes_price(eu), 0.05);
}

TEST(CrankNicolson, ScalarWidthFallsBackToBlocked) {
  const core::OptionSpec o = am_put();
  const cn::GridSpec g = small_grid();
  const auto a = cn::price_wavefront(o, g, cn::Width::kScalar);
  const auto b = cn::price_reference_blocked(o, g, 1);
  EXPECT_EQ(a.price, b.price);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
}

TEST(CrankNicolson, ThrowsOnTooSmallGridForWavefront) {
  const core::OptionSpec o = am_put();
  cn::GridSpec g;
  g.num_prices = 10;  // < 2W+3 for W=8
  g.num_steps = 10;
  EXPECT_THROW(cn::price_wavefront(o, g, cn::Width::kAuto), std::invalid_argument);
}

TEST(CrankNicolson, ThrowsOnDegenerateOption) {
  core::OptionSpec o = am_put();
  o.vol = 0.0;
  EXPECT_THROW(cn::price_reference(o, small_grid()), std::invalid_argument);
}

TEST(CrankNicolson, RejectsIllConditionedTransform) {
  // Near-zero volatility vs the rate: |2r/sigma^2| explodes and the
  // transformed obstacle spans hundreds of orders of magnitude (found by
  // the robustness fuzzer). Must reject, not silently return garbage.
  core::OptionSpec o = am_put(100, 300, 2.6, 0.036, 0.022);
  EXPECT_THROW(cn::price_reference(o, small_grid()), std::invalid_argument);
  EXPECT_THROW(cn::price_european_thomas(o, small_grid()), std::invalid_argument);
  // Just inside the guard still works.
  core::OptionSpec ok = am_put(100, 100, 1.0, 0.05, 0.06);  // k2 ~ 28
  EXPECT_GT(cn::price_reference(ok, small_grid()).price, 0.0);
}

TEST_P(CnWidthTest, PairInterleavedMatchesSingleSolves) {
  // The ILP-paired solver runs the same iteration sequence as two single
  // solves (identical updates, per-option convergence decisions), so
  // prices and iteration counts must match exactly.
  const core::OptionSpec a = am_put(95, 100, 1.0, 0.05, 0.25);
  const core::OptionSpec b = am_put(110, 100, 2.0, 0.03, 0.35);
  const cn::GridSpec g = small_grid();
  const auto [ra, rb] = cn::price_wavefront_split_pair(a, b, g, GetParam());
  const auto sa = cn::price_wavefront_split(a, g, GetParam());
  const auto sb = cn::price_wavefront_split(b, g, GetParam());
  EXPECT_EQ(ra.price, sa.price);
  EXPECT_EQ(rb.price, sb.price);
  EXPECT_EQ(ra.total_iterations, sa.total_iterations);
  EXPECT_EQ(rb.total_iterations, sb.total_iterations);
}

TEST(CrankNicolson, PairHandlesAsymmetricConvergence) {
  // Wildly different vols make one option converge much faster per step;
  // the pair driver must finish the slow one alone, still correctly.
  const core::OptionSpec fast = am_put(100, 100, 0.25, 0.01, 0.6);
  const core::OptionSpec slow = am_put(100, 100, 3.0, 0.08, 0.12);
  const cn::GridSpec g = small_grid();
  const auto [rf, rs] = cn::price_wavefront_split_pair(fast, slow, g);
  EXPECT_EQ(rf.price, cn::price_wavefront_split(fast, g).price);
  EXPECT_EQ(rs.price, cn::price_wavefront_split(slow, g).price);
}

TEST(CrankNicolson, BatchDriverMatchesSingleSolves) {
  core::SingleOptionWorkloadParams p;
  p.style = core::ExerciseStyle::kAmerican;
  const auto opts = core::make_option_workload(6, 21, p);
  const cn::GridSpec g = small_grid();
  std::vector<double> batch(opts.size());
  cn::price_batch(opts, g, cn::Variant::kWavefrontSplit, batch);
  for (std::size_t i = 0; i < opts.size(); ++i) {
    EXPECT_EQ(batch[i], cn::price_wavefront_split(opts[i], g).price) << i;
  }
}

TEST(CrankNicolson, TighterEpsilonCostsMoreIterationsAndRefinesPrice) {
  const core::OptionSpec o = am_put();
  cn::GridSpec loose = small_grid();
  loose.epsilon = 1e-10;
  cn::GridSpec tight = small_grid();
  tight.epsilon = 1e-14;
  const auto rl = cn::price_reference(o, loose);
  const auto rt = cn::price_reference(o, tight);
  EXPECT_GT(rt.total_iterations, rl.total_iterations);
  // Tight solve is the better answer; loose must still be close.
  EXPECT_NEAR(rl.price, rt.price, 5e-3 * rt.price);
}

TEST(CrankNicolson, FlopsModelIsPositiveAndScales) {
  cn::GridSpec g = small_grid();
  const double f1 = cn::flops_per_option_estimate(g, 10.0);
  g.num_steps *= 2;
  EXPECT_NEAR(cn::flops_per_option_estimate(g, 10.0), 2 * f1, 1e-9 * f1);
}

// --- Brennan–Schwartz ----------------------------------------------------------

TEST(BrennanSchwartz, MatchesPsorAmericanPut) {
  core::OptionSpec o{100, 100, 1.0, 0.05, 0.2, core::OptionType::kPut,
                     core::ExerciseStyle::kAmerican};
  cn::GridSpec g;
  g.num_prices = 257;
  g.num_steps = 200;
  const auto direct = cn::price_american_brennan_schwartz(o, g);
  const auto psor = cn::price_reference(o, g);
  // Both solve the same LCP; agreement to PSOR's convergence tolerance.
  EXPECT_NEAR(direct.price, psor.price, 1e-4 * psor.price);
  // One direct solve per step versus many PSOR iterations.
  EXPECT_EQ(direct.total_iterations, g.num_steps);
  EXPECT_GT(psor.total_iterations, 2L * g.num_steps);
}

TEST(BrennanSchwartz, MatchesBinomialAcrossMoneyness) {
  cn::GridSpec g;
  g.num_prices = 513;
  g.num_steps = 400;
  for (double spot : {85.0, 100.0, 115.0}) {
    core::OptionSpec o{spot, 100, 1.0, 0.06, 0.3, core::OptionType::kPut,
                       core::ExerciseStyle::kAmerican};
    const double direct = cn::price_american_brennan_schwartz(o, g).price;
    const double lattice = binomial::price_one_reference(o, 4096);
    EXPECT_NEAR(direct, lattice, 6e-3 * lattice) << spot;
  }
}

TEST(BrennanSchwartz, RejectsCalls) {
  core::OptionSpec o{100, 100, 1.0, 0.05, 0.2, core::OptionType::kCall,
                     core::ExerciseStyle::kAmerican};
  cn::GridSpec g;
  EXPECT_THROW(cn::price_american_brennan_schwartz(o, g), std::invalid_argument);
}

}  // namespace
