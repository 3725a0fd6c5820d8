// Tests for the Black–Scholes kernel (Fig. 4): every optimization level
// must agree with the scalar reference and with the analytic golden
// implementation, for batch sizes that exercise SIMD tails, at every width.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/obs/metrics.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

constexpr std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1001};

using core::Layout;
using core::Portfolio;

Portfolio priced_reference(std::size_t n, std::uint64_t seed = 1) {
  Portfolio book = Portfolio::bs(n, Layout::kBsAos, seed);
  bs::price_reference(book.view().aos);
  return book;
}

TEST(BlackScholesKernel, ReferenceMatchesAnalytic) {
  Portfolio book = priced_reference(500);
  const core::BsAosView batch = book.view().aos;
  for (const auto& o : batch.options) {
    const core::BsPrice p =
        core::black_scholes(o.spot, o.strike, o.years, batch.rate, batch.vol);
    EXPECT_NEAR(o.call, p.call, 1e-9 * std::max(1.0, p.call));
    EXPECT_NEAR(o.put, p.put, 1e-9 * std::max(1.0, p.put));
  }
}

TEST(BlackScholesKernel, BasicMatchesReference) {
  for (std::size_t n : kSizes) {
    Portfolio ref_book = priced_reference(n);
    const core::BsAosView ref = ref_book.view().aos;
    Portfolio book = Portfolio::bs(n, Layout::kBsAos, 1);
    const core::BsAosView batch = book.view().aos;
    bs::price_basic(batch);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(batch.options[i].call, ref.options[i].call, 1e-12) << n << ":" << i;
      EXPECT_NEAR(batch.options[i].put, ref.options[i].put, 1e-12);
    }
  }
}

class BsWidthTest : public ::testing::TestWithParam<bs::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, BsWidthTest,
                         ::testing::Values(bs::Width::kScalar, bs::Width::kAvx2,
                                           bs::Width::kAvx512, bs::Width::kAuto));

TEST_P(BsWidthTest, IntermediateMatchesReference) {
  for (std::size_t n : kSizes) {
    Portfolio ref_book = priced_reference(n);
    const core::BsAosView ref = ref_book.view().aos;
    Portfolio book = Portfolio::bs(n, Layout::kBsSoa, 1);
    const core::BsSoaView soa = book.view().soa;
    bs::price_intermediate(soa, GetParam());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(soa.call[i], ref.options[i].call, 1e-9 * std::max(1.0, ref.options[i].call))
          << "n=" << n << " i=" << i;
      EXPECT_NEAR(soa.put[i], ref.options[i].put, 1e-9 * std::max(1.0, ref.options[i].put));
    }
  }
}

TEST_P(BsWidthTest, AdvancedVmlMatchesReference) {
  for (std::size_t n : kSizes) {
    Portfolio ref_book = priced_reference(n);
    const core::BsAosView ref = ref_book.view().aos;
    Portfolio book = Portfolio::bs(n, Layout::kBsSoa, 1);
    const core::BsSoaView soa = book.view().soa;
    bs::price_advanced_vml(soa, GetParam());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(soa.call[i], ref.options[i].call, 1e-9 * std::max(1.0, ref.options[i].call))
          << "n=" << n << " i=" << i;
      EXPECT_NEAR(soa.put[i], ref.options[i].put, 1e-9 * std::max(1.0, ref.options[i].put));
    }
  }
}

TEST_P(BsWidthTest, PutCallParityInOutputs) {
  Portfolio book = Portfolio::bs(333, Layout::kBsSoa, 7);
  const core::BsSoaView soa = book.view().soa;
  bs::price_intermediate(soa, GetParam());
  for (std::size_t i = 0; i < soa.size(); ++i) {
    const double rhs = soa.spot[i] - soa.strike[i] * std::exp(-soa.rate * soa.years[i]);
    EXPECT_NEAR(soa.call[i] - soa.put[i], rhs, 1e-9 * std::max(1.0, std::fabs(rhs)));
  }
}

TEST(BlackScholesKernel, EmptyBatchIsFine) {
  Portfolio aos = Portfolio::bs(0, Layout::kBsAos);
  bs::price_reference(aos.view().aos);
  bs::price_basic(aos.view().aos);
  Portfolio soa = Portfolio::bs(0, Layout::kBsSoa);
  bs::price_intermediate(soa.view().soa);
  bs::price_advanced_vml(soa.view().soa);
  SUCCEED();
}

// bs.options_priced counts what every pricing entry point prices, so a
// run whichever kernel won its race reports the options it priced.
TEST(BlackScholesKernel, EveryPricingEntryPointCountsItsBatch) {
  const obs::Counter& priced = obs::counter("bs.options_priced");
  constexpr std::size_t n = 37;
  Portfolio aos = Portfolio::bs(n, Layout::kBsAos);
  Portfolio soa = Portfolio::bs(n, Layout::kBsSoa);
  Portfolio sp = Portfolio::bs(n, Layout::kBsSoaF);
  Portfolio blocked = Portfolio::bs(n, Layout::kBsBlocked);
  const std::pair<const char*, std::function<void()>> entries[] = {
      {"reference", [&] { bs::price_reference(aos.view().aos); }},
      {"basic", [&] { bs::price_basic(aos.view().aos); }},
      {"intermediate", [&] { bs::price_intermediate(soa.view().soa); }},
      {"advanced_vml", [&] { bs::price_advanced_vml(soa.view().soa); }},
      {"intermediate_sp", [&] { bs::price_intermediate_sp(sp.view().sp); }},
      {"blocked", [&] { bs::price_blocked(blocked.view().blocked); }},
      {"blocked_sp", [&] { bs::price_blocked_sp(blocked.view().blocked); }},
      {"blocked_from_aos", [&] { bs::price_blocked_from_aos(aos.view().aos); }},
      {"blocked_from_aos_f32", [&] { bs::price_blocked_from_aos_f32(aos.view().aos); }},
  };
  for (const auto& [name, price] : entries) {
    const std::uint64_t before = priced.value();
    price();
    EXPECT_EQ(priced.value() - before, n) << name;
  }
}

TEST(BlackScholesKernel, ExtremeParameterRanges) {
  // Short-dated, long-dated, deep ITM/OTM — all variants must agree.
  core::WorkloadParams p;
  p.spot_min = 1.0;
  p.spot_max = 500.0;
  p.strike_min = 1.0;
  p.strike_max = 500.0;
  p.years_min = 0.01;
  p.years_max = 10.0;
  Portfolio aos_book = Portfolio::bs(512, Layout::kBsAos, 3, p);
  const core::BsAosView aos = aos_book.view().aos;
  bs::price_reference(aos);
  Portfolio soa_book = Portfolio::bs(512, Layout::kBsSoa, 3, p);
  const core::BsSoaView soa = soa_book.view().soa;
  bs::price_intermediate(soa);
  for (std::size_t i = 0; i < soa.size(); ++i) {
    EXPECT_NEAR(soa.call[i], aos.options[i].call,
                1e-8 * std::max(1.0, aos.options[i].call));
  }
}

TEST(BlackScholesKernel, OutputsAreNonNegative) {
  Portfolio book = Portfolio::bs(1000, Layout::kBsSoa, 13);
  const core::BsSoaView soa = book.view().soa;
  bs::price_advanced_vml(soa);
  for (std::size_t i = 0; i < soa.size(); ++i) {
    EXPECT_GE(soa.call[i], -1e-12);
    EXPECT_GE(soa.put[i], -1e-12);
  }
}

TEST_P(BsWidthTest, BatchImpliedVolRoundtrips) {
  for (std::size_t n : {1UL, 7UL, 8UL, 9UL, 130UL}) {
    Portfolio book = Portfolio::bs(n, Layout::kBsSoa, 19);
    core::BsSoaView soa = book.view().soa;
    soa.vol = 0.31;
    bs::price_intermediate(soa);
    std::vector<double> vols(n);
    bs::implied_vol_intermediate(soa, soa.call, vols, GetParam());
    for (std::size_t i = 0; i < n; ++i) {
      // Deep ITM/OTM quotes have tiny vega: accept either an accurate vol
      // or an accurate reprice.
      core::OptionSpec o{soa.spot[i], soa.strike[i], soa.years[i], soa.rate, vols[i],
                         core::OptionType::kCall, core::ExerciseStyle::kEuropean};
      ASSERT_GT(vols[i], 0.0) << i;
      EXPECT_NEAR(core::black_scholes_price(o), soa.call[i],
                  1e-9 * std::max(1.0, soa.call[i]))
          << "n=" << n << " i=" << i;
      const double vega = core::black_scholes_greeks(o).vega;
      if (vega > 1.0) {
        EXPECT_NEAR(vols[i], 0.31, 1e-6) << i;
      }
    }
  }
}

TEST(BlackScholesKernel, BatchImpliedVolFlagsArbitrageViolations) {
  Portfolio book = Portfolio::bs(16, Layout::kBsSoa, 20);
  const core::BsSoaView soa = book.view().soa;
  bs::price_intermediate(soa);
  std::vector<double> prices(soa.call.begin(), soa.call.end());
  prices[3] = soa.spot[3] + 1.0;   // above the upper bound
  prices[7] = -0.5;                // negative
  std::vector<double> vols(16);
  bs::implied_vol_intermediate(soa, prices, vols);
  EXPECT_LT(vols[3], 0.0);
  EXPECT_LT(vols[7], 0.0);
  EXPECT_GT(vols[0], 0.0);
}

TEST(BlackScholesKernel, WidthsProduceConsistentResults) {
  // Scalar/4/8-wide paths run the same generic code; only compiler FMA
  // contraction in the scalar instantiation may differ (a few ulp).
  Portfolio b1 = Portfolio::bs(64, Layout::kBsSoa, 21);
  Portfolio b4 = Portfolio::bs(64, Layout::kBsSoa, 21);
  const core::BsSoaView s1 = b1.view().soa, s4 = b4.view().soa;
  bs::price_intermediate(s1, bs::Width::kScalar);
  bs::price_intermediate(s4, bs::Width::kAvx2);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_NEAR(s1.call[i], s4.call[i], 1e-12 * std::max(1.0, s1.call[i])) << i;
    EXPECT_NEAR(s1.put[i], s4.put[i], 1e-12 * std::max(1.0, s1.put[i])) << i;
  }
#if defined(FINBENCH_HAVE_AVX512)
  // The two intrinsic paths contain no compiler-contracted arithmetic at
  // all, so 4-wide and 8-wide must agree bitwise.
  Portfolio b8 = Portfolio::bs(64, Layout::kBsSoa, 21);
  const core::BsSoaView s8 = b8.view().soa;
  bs::price_intermediate(s8, bs::Width::kAvx512);
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s4.call[i], s8.call[i]) << i;
#endif
}

}  // namespace
