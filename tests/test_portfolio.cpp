// Tests for the layout-tagged Portfolio data model: the Arena's alignment
// and block-reuse guarantees, zero-copy view semantics, bitwise layout
// round trips (AOS <-> SOA <-> blocked), output writeback, the
// single-generator coupling between the AOS and SOA workload builders, and
// the convertibility matrix the engine's negotiation relies on.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"

using namespace finbench;
using core::Arena;
using core::ConvertStats;
using core::Layout;
using core::Portfolio;
using core::PortfolioView;

namespace {

bool is_cache_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % arch::kCacheLineBytes == 0;
}

}  // namespace

// --- Arena ------------------------------------------------------------------

TEST(Arena, AllocationsAreCacheLineAligned) {
  Arena a;
  // Odd sizes must not knock later allocations off alignment.
  for (std::size_t bytes : {1u, 7u, 64u, 100u, 4096u, 65536u}) {
    EXPECT_TRUE(is_cache_aligned(a.allocate(bytes))) << bytes;
  }
  auto s = a.make_span<double>(33);
  EXPECT_TRUE(is_cache_aligned(s.data()));
  EXPECT_EQ(s.size(), 33u);
}

TEST(Arena, ResetKeepsBlocksSoSteadyStateNeverGrows) {
  Arena a;
  a.allocate(1000);
  a.allocate(5000);
  const std::size_t reserved = a.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  for (int rep = 0; rep < 16; ++rep) {
    a.reset();
    EXPECT_EQ(a.bytes_in_use(), 0u);
    a.allocate(1000);
    a.allocate(5000);
    EXPECT_EQ(a.bytes_reserved(), reserved) << "rep " << rep << " grew the arena";
  }
}

TEST(Arena, GrowsWhenDemandExceedsReservation) {
  Arena a(256);
  const std::size_t before = a.bytes_reserved();
  void* p = a.allocate(4 * before + 1);
  EXPECT_NE(p, nullptr);
  EXPECT_GT(a.bytes_reserved(), before);
}

// --- Views ------------------------------------------------------------------

TEST(PortfolioView, ViewsAliasTheOwningBatchArrays) {
  auto soa = core::make_bs_workload_soa(64, 5);
  PortfolioView v = core::view_of(soa);
  EXPECT_EQ(v.layout, Layout::kBsSoa);
  EXPECT_EQ(v.soa.spot.data(), soa.spot.data());
  EXPECT_EQ(v.soa.call.data(), soa.call.data());
  // Writes through the view land in the batch: that's how kernels return
  // prices without copying.
  v.soa.call[7] = 42.0;
  EXPECT_EQ(soa.call[7], 42.0);

  auto aos = core::make_bs_workload_aos(64, 5);
  PortfolioView w = core::view_of(aos);
  EXPECT_EQ(w.layout, Layout::kBsAos);
  EXPECT_EQ(w.aos.options.data(), aos.options.data());
  EXPECT_EQ(w.size(), 64u);
}

TEST(PortfolioView, IdentityConversionIsZeroCopy) {
  auto soa = core::make_bs_workload_soa(32, 3);
  Arena a;
  ConvertStats stats;
  PortfolioView v = core::convert(core::view_of(soa), Layout::kBsSoa, a, &stats);
  EXPECT_EQ(v.soa.spot.data(), soa.spot.data());  // same memory, no copy
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(a.bytes_in_use(), 0u);
}

TEST(PortfolioView, ConvertedViewsAreCacheAlignedArenaMemory) {
  auto aos = core::make_bs_workload_aos(100, 7);
  Arena a;
  ConvertStats stats;
  PortfolioView v = core::convert(core::view_of(aos), Layout::kBsSoa, a, &stats);
  EXPECT_TRUE(is_cache_aligned(v.soa.spot.data()));
  EXPECT_TRUE(is_cache_aligned(v.soa.strike.data()));
  EXPECT_TRUE(is_cache_aligned(v.soa.years.data()));
  EXPECT_TRUE(is_cache_aligned(v.soa.call.data()));
  EXPECT_TRUE(is_cache_aligned(v.soa.put.data()));
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GE(stats.seconds, 0.0);
  EXPECT_GE(a.bytes_in_use(), stats.bytes);
}

// --- Round trips ------------------------------------------------------------

TEST(Convert, AosSoaRoundTripIsBitwise) {
  auto aos = core::make_bs_workload_aos(257, 11);  // odd n: exercises tails
  // Seed the outputs so the round trip must carry them too.
  for (std::size_t i = 0; i < aos.size(); ++i) {
    aos.options[i].call = 1.0 + static_cast<double>(i);
    aos.options[i].put = 2.0 + static_cast<double>(i);
  }
  Arena a;
  PortfolioView soa = core::convert(core::view_of(aos), Layout::kBsSoa, a);
  PortfolioView back = core::convert(soa, Layout::kBsAos, a);
  ASSERT_EQ(back.aos.size(), aos.size());
  EXPECT_EQ(back.aos.rate, aos.rate);
  EXPECT_EQ(back.aos.vol, aos.vol);
  EXPECT_EQ(0, std::memcmp(back.aos.options.data(), aos.options.data(),
                           aos.size() * sizeof(core::BsOptionAos)));
}

TEST(Convert, AosBlockedRoundTripIsBitwiseAndTailIsPadded) {
  auto aos = core::make_bs_workload_aos(21, 13);  // 21 = 2*8 + 5: ragged tail
  Arena a;
  PortfolioView blk = core::convert(core::view_of(aos), Layout::kBsBlocked, a);
  ASSERT_EQ(blk.blocked.n, 21u);
  const std::size_t b = static_cast<std::size_t>(blk.blocked.block);
  ASSERT_EQ(blk.blocked.num_blocks(), (21 + b - 1) / b);
  // Trailing lanes of the last block replicate the final option, so a
  // register tile can run full-width without branching.
  const std::size_t last = blk.blocked.num_blocks() - 1;
  const double* spot = blk.blocked.field(last, 0);
  for (std::size_t lane = 21 - last * b; lane < b; ++lane) {
    EXPECT_EQ(spot[lane], aos.options[20].spot) << lane;
  }
  PortfolioView back = core::convert(blk, Layout::kBsAos, a);
  ASSERT_EQ(back.aos.size(), aos.size());
  for (std::size_t i = 0; i < aos.size(); ++i) {
    EXPECT_EQ(back.aos.options[i].spot, aos.options[i].spot) << i;
    EXPECT_EQ(back.aos.options[i].strike, aos.options[i].strike) << i;
    EXPECT_EQ(back.aos.options[i].years, aos.options[i].years) << i;
  }
}

TEST(Convert, CopyOutputsLandsPricesInTheCallersLayout) {
  auto aos = core::make_bs_workload_aos(50, 19);
  Arena a;
  PortfolioView soa = core::convert(core::view_of(aos), Layout::kBsSoa, a);
  for (std::size_t i = 0; i < 50; ++i) {
    soa.soa.call[i] = 10.0 + static_cast<double>(i);
    soa.soa.put[i] = 20.0 + static_cast<double>(i);
  }
  const std::size_t bytes = core::copy_outputs(soa, core::view_of(aos));
  EXPECT_EQ(bytes, 50u * 2 * sizeof(double));
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(aos.options[i].call, 10.0 + static_cast<double>(i)) << i;
    EXPECT_EQ(aos.options[i].put, 20.0 + static_cast<double>(i)) << i;
  }
}

// The range pieces the engine negotiates a chunk with: subview of the
// source, a tile from allocate_like, copy_inputs into it. Chunk by chunk
// they reproduce convert()'s inputs in every target layout, and a
// blocked tile pads its ragged last block with the chunk's final option.
TEST(Convert, RangeCopiesComposeIntoConvert) {
  auto aos = core::make_bs_workload_aos(150, 23);  // chunks of 64, 64, 22
  const PortfolioView src = core::view_of(aos);
  for (const Layout target : {Layout::kBsSoa, Layout::kBsSoaF, Layout::kBsBlocked}) {
    Arena a;
    const PortfolioView whole = core::convert(src, target, a);
    for (std::size_t off = 0; off < 150; off += 64) {
      const std::size_t m = std::min<std::size_t>(64, 150 - off);
      const PortfolioView tile = core::allocate_like(src, target, m, a);
      EXPECT_EQ(core::copy_inputs(core::subview(src, off, m), tile),
                m * 3 * (target == Layout::kBsSoaF ? sizeof(float) : sizeof(double)));
      const PortfolioView want = core::subview(whole, off, m);
      const PortfolioView back = core::convert(tile, Layout::kBsAos, a);
      const PortfolioView want_back = core::convert(want, Layout::kBsAos, a);
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(back.aos.options[i].spot, want_back.aos.options[i].spot) << off + i;
        EXPECT_EQ(back.aos.options[i].strike, want_back.aos.options[i].strike) << off + i;
        EXPECT_EQ(back.aos.options[i].years, want_back.aos.options[i].years) << off + i;
      }
      if (target == Layout::kBsBlocked && m % 8 != 0) {
        const std::size_t last = tile.blocked.num_blocks() - 1;
        for (std::size_t lane = m - last * 8; lane < 8; ++lane) {
          EXPECT_EQ(tile.blocked.field(last, 0)[lane], aos.options[off + m - 1].spot) << lane;
        }
      }
    }
  }
  // A blocked range must start on a block boundary.
  Arena a;
  const PortfolioView blk = core::convert(src, Layout::kBsBlocked, a);
  EXPECT_EQ(core::subview(blk, 64, 22).size(), 22u);
  EXPECT_THROW(core::subview(blk, 3, 8), std::invalid_argument);
}

// --- Convertibility matrix --------------------------------------------------

TEST(Convert, OnlyBsLayoutsAreMutuallyConvertible) {
  const Layout bs[] = {Layout::kBsAos, Layout::kBsSoa, Layout::kBsSoaF, Layout::kBsBlocked};
  for (Layout from : bs) {
    for (Layout to : bs) EXPECT_TRUE(core::convertible(from, to));
    EXPECT_FALSE(core::convertible(from, Layout::kSpecs));
    EXPECT_FALSE(core::convertible(from, Layout::kPaths));
    EXPECT_FALSE(core::convertible(Layout::kSpecs, from));
  }
  // Identity is always negotiable, even for the non-BS layouts.
  EXPECT_TRUE(core::convertible(Layout::kSpecs, Layout::kSpecs));
  EXPECT_TRUE(core::convertible(Layout::kPaths, Layout::kPaths));
  EXPECT_FALSE(core::convertible(Layout::kSpecs, Layout::kPaths));
}

// --- Workload-generator coupling --------------------------------------------

// The SOA generator is defined as to_soa() of the AOS generator's draw:
// every layout of one (n, seed) sees bitwise-identical inputs. This is
// what makes cross-layout validation (AOS reference vs SOA kernel) exact.
TEST(WorkloadCoupling, SoaGeneratorEqualsConvertedAosGeneratorBitwise) {
  const std::size_t n = 321;
  const auto aos = core::make_bs_workload_aos(n, 77);
  auto soa = core::make_bs_workload_soa(n, 77);
  ASSERT_EQ(soa.size(), n);
  EXPECT_EQ(soa.rate, aos.rate);
  EXPECT_EQ(soa.vol, aos.vol);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(soa.spot[i], aos.options[i].spot) << i;
    EXPECT_EQ(soa.strike[i], aos.options[i].strike) << i;
    EXPECT_EQ(soa.years[i], aos.options[i].years) << i;
  }
}

TEST(WorkloadCoupling, PortfolioBsIsBitwiseEqualAcrossLayouts) {
  Portfolio p_aos = Portfolio::bs(129, Layout::kBsAos, 31);
  Portfolio p_soa = Portfolio::bs(129, Layout::kBsSoa, 31);
  Arena a;
  PortfolioView conv = core::convert(p_aos.view(), Layout::kBsSoa, a);
  const auto& soa = p_soa.view().soa;
  ASSERT_EQ(conv.soa.size(), soa.size());
  for (std::size_t i = 0; i < soa.size(); ++i) {
    EXPECT_EQ(conv.soa.spot[i], soa.spot[i]) << i;
    EXPECT_EQ(conv.soa.strike[i], soa.strike[i]) << i;
    EXPECT_EQ(conv.soa.years[i], soa.years[i]) << i;
  }
}

// --- Portfolio --------------------------------------------------------------

TEST(PortfolioOwner, SpecsCopyIsDeepAndAligned) {
  std::vector<core::OptionSpec> src = core::make_option_workload(17, 3);
  Portfolio p = Portfolio::specs(std::span<const core::OptionSpec>(src));
  EXPECT_EQ(p.layout(), Layout::kSpecs);
  ASSERT_EQ(p.size(), 17u);
  EXPECT_NE(p.view().specs.data(), src.data());  // owning copy, not a view
  EXPECT_TRUE(is_cache_aligned(p.view().specs.data()));
  const double spot0 = src[0].spot;
  src[0].spot = -1.0;  // mutating the source must not reach the portfolio
  EXPECT_EQ(p.view().specs[0].spot, spot0);
}

TEST(PortfolioOwner, ConvertedMakesAnIndependentDeepCopy) {
  Portfolio p = Portfolio::bs(40, Layout::kBsAos, 9);
  ConvertStats stats;
  Portfolio q = p.converted(Layout::kBsSoa, &stats);
  EXPECT_EQ(q.layout(), Layout::kBsSoa);
  ASSERT_EQ(q.size(), 40u);
  EXPECT_GT(stats.bytes, 0u);
  // Identity "conversion" must also deep-copy: an owning Portfolio never
  // aliases another's arena.
  Portfolio r = p.converted(Layout::kBsAos);
  EXPECT_NE(r.view().aos.options.data(), p.view().aos.options.data());
  EXPECT_EQ(r.view().aos.options[3].spot, p.view().aos.options[3].spot);
}

TEST(PortfolioOwner, PathsCarriesOnlyACount) {
  Portfolio p = Portfolio::paths(4096);
  EXPECT_EQ(p.layout(), Layout::kPaths);
  EXPECT_EQ(p.size(), 4096u);
  EXPECT_EQ(p.arena_bytes(), 0u);
}
