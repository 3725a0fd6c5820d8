// Tests for the register-tiled blocked Black–Scholes family: the AoSoA
// kernels (DP 4/8-wide, SP 8/16-wide over double storage) and the fused
// AOS->blocked->AOS pipeline must agree with the analytic closed form at
// their stated tolerances for sizes that exercise every tail shape —
// sub-block batches, exact block multiples, odd block counts (the ×2
// unroll's trailing block), and ragged tails. Padded lanes (the final
// block replicates its last option) must never leak into real outputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/blackscholes.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

// Sub-block, exact blocks, odd block counts, ragged tails — for both the
// 4-lane and 8-lane block widths.
constexpr std::size_t kSizes[] = {1, 3, 5, 8, 13, 16, 24, 100, 1000, 1003};

void expect_blocked_matches_analytic(const core::BsBlockedView& b, std::size_t n,
                                     double rel_tol, const char* what) {
  ASSERT_EQ(b.n, n);
  constexpr std::size_t w = core::kBsBlock;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blk = i / w, ln = i % w;
    const double spot = b.field(blk, 0)[ln];
    const double strike = b.field(blk, 1)[ln];
    const double years = b.field(blk, 2)[ln];
    const core::BsPrice p =
        core::black_scholes(spot, strike, years, b.rate, b.vol, b.dividend);
    EXPECT_NEAR(b.field(blk, 3)[ln], p.call, rel_tol * std::max(1.0, p.call))
        << what << " n=" << n << " i=" << i;
    EXPECT_NEAR(b.field(blk, 4)[ln], p.put, rel_tol * std::max(1.0, p.put))
        << what << " n=" << n << " i=" << i;
  }
}

class BlockedWidthTest : public ::testing::TestWithParam<bs::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, BlockedWidthTest,
                         ::testing::Values(bs::Width::kScalar, bs::Width::kAvx2,
                                           bs::Width::kAvx512, bs::Width::kAuto));

TEST_P(BlockedWidthTest, BlockedMatchesAnalyticAcrossTailShapes) {
  for (std::size_t n : kSizes) {
    core::Portfolio pf = core::Portfolio::bs(n, core::Layout::kBsBlocked, 1);
    core::BsBlockedView b = pf.view().blocked;
    bs::price_blocked(b, GetParam());
    expect_blocked_matches_analytic(b, n, 1e-9, "blocked dp");
  }
}

TEST_P(BlockedWidthTest, FusedAosPathMatchesAnalyticAcrossTailShapes) {
  for (std::size_t n : kSizes) {
    core::Portfolio book = core::Portfolio::bs(n, core::Layout::kBsAos, 1);
    const core::BsAosView aos = book.view().aos;
    bs::price_blocked_from_aos(aos, GetParam());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& o = aos.options[i];
      const core::BsPrice p =
          core::black_scholes(o.spot, o.strike, o.years, aos.rate, aos.vol, aos.dividend);
      EXPECT_NEAR(o.call, p.call, 1e-9 * std::max(1.0, p.call)) << "n=" << n << " i=" << i;
      EXPECT_NEAR(o.put, p.put, 1e-9 * std::max(1.0, p.put)) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(BlockedWidthTest, FusedAosPathHandlesDividendYield) {
  core::Portfolio book = core::Portfolio::bs(77, core::Layout::kBsAos, 5);
  core::BsAosView aos = book.view().aos;
  aos.dividend = 0.03;  // exercises the HasDividend tile specialization
  bs::price_blocked_from_aos(aos, GetParam());
  for (std::size_t i = 0; i < aos.options.size(); ++i) {
    const auto& o = aos.options[i];
    const core::BsPrice p =
        core::black_scholes(o.spot, o.strike, o.years, aos.rate, aos.vol, aos.dividend);
    EXPECT_NEAR(o.call, p.call, 1e-9 * std::max(1.0, p.call)) << i;
    EXPECT_NEAR(o.put, p.put, 1e-9 * std::max(1.0, p.put)) << i;
  }
}

// The SP kernels run twice the double lane count at each Width.
TEST_P(BlockedWidthTest, BlockedSpMatchesAnalyticAtSinglePrecision) {
  for (std::size_t n : kSizes) {
    core::Portfolio pf = core::Portfolio::bs(n, core::Layout::kBsBlocked, 1);
    core::BsBlockedView b = pf.view().blocked;
    bs::price_blocked_sp(b, GetParam());
    expect_blocked_matches_analytic(b, n, 1e-3, "blocked sp");
  }
}

TEST_P(BlockedWidthTest, FusedAosSpMatchesAnalyticAcrossTailShapes) {
  for (std::size_t n : kSizes) {
    core::Portfolio book = core::Portfolio::bs(n, core::Layout::kBsAos, 1);
    const core::BsAosView aos = book.view().aos;
    bs::price_blocked_from_aos_f32(aos, GetParam());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& o = aos.options[i];
      const core::BsPrice p =
          core::black_scholes(o.spot, o.strike, o.years, aos.rate, aos.vol, aos.dividend);
      EXPECT_NEAR(o.call, p.call, 1e-3 * std::max(1.0, p.call)) << "n=" << n << " i=" << i;
      EXPECT_NEAR(o.put, p.put, 1e-3 * std::max(1.0, p.put)) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(BlockedWidthTest, FusedAosSpHandlesDividendYield) {
  core::Portfolio book = core::Portfolio::bs(77, core::Layout::kBsAos, 5);
  core::BsAosView aos = book.view().aos;
  aos.dividend = 0.03;
  bs::price_blocked_from_aos_f32(aos, GetParam());
  for (std::size_t i = 0; i < aos.options.size(); ++i) {
    const auto& o = aos.options[i];
    const core::BsPrice p =
        core::black_scholes(o.spot, o.strike, o.years, aos.rate, aos.vol, aos.dividend);
    EXPECT_NEAR(o.call, p.call, 1e-3 * std::max(1.0, p.call)) << i;
    EXPECT_NEAR(o.put, p.put, 1e-3 * std::max(1.0, p.put)) << i;
  }
}

// At equal width every layout runs one model through its own driver, so
// the blocked and fused AOS kernels equal the SOA kernel bit for bit, the
// SP ones after widening — n mod W tails included: each driver prices its
// tail as one tile padded with the last option, so an option's bits do not
// depend on where it sits in the batch.
TEST_P(BlockedWidthTest, LayoutsAgreeBitwiseWithIntermediate) {
  constexpr std::size_t w = core::kBsBlock;
  for (const double q : {0.0, 0.03}) {
    for (std::size_t n : kSizes) {
      core::Portfolio soa_book = core::Portfolio::bs(n, core::Layout::kBsSoa, 9);
      core::BsSoaView soa = soa_book.view().soa;
      soa.dividend = q;
      bs::price_intermediate(soa, GetParam());
      core::Portfolio sp_book = core::Portfolio::bs(n, core::Layout::kBsSoaF, 9);
      core::BsSoaFView sp = sp_book.view().sp;
      sp.dividend = static_cast<float>(q);
      bs::price_intermediate_sp(sp, GetParam());

      for (const bool single : {false, true}) {
        core::Portfolio blocked_book = core::Portfolio::bs(n, core::Layout::kBsBlocked, 9);
        core::BsBlockedView b = blocked_book.view().blocked;
        b.dividend = q;
        core::Portfolio aos_book = core::Portfolio::bs(n, core::Layout::kBsAos, 9);
        core::BsAosView aos = aos_book.view().aos;
        aos.dividend = q;
        if (single) {
          bs::price_blocked_sp(b, GetParam());
          bs::price_blocked_from_aos_f32(aos, GetParam());
        } else {
          bs::price_blocked(b, GetParam());
          bs::price_blocked_from_aos(aos, GetParam());
        }
        SCOPED_TRACE(testing::Message() << (single ? "sp" : "dp") << " q=" << q << " n=" << n);
        for (std::size_t i = 0; i < n; ++i) {
          const double call = single ? static_cast<double>(sp.call[i]) : soa.call[i];
          const double put = single ? static_cast<double>(sp.put[i]) : soa.put[i];
          EXPECT_EQ(b.field(i / w, 3)[i % w], call) << "blocked i=" << i;
          EXPECT_EQ(b.field(i / w, 4)[i % w], put) << "blocked i=" << i;
          EXPECT_EQ(aos.options[i].call, call) << "fused i=" << i;
          EXPECT_EQ(aos.options[i].put, put) << "fused i=" << i;
        }
      }
    }
  }
}

}  // namespace
