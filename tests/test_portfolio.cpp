// Tests for the layout-tagged Portfolio data model: the Arena's alignment
// and block-reuse guarantees, zero-copy view semantics, the per-option
// Black–Scholes accessors, bitwise layout round trips (AOS <-> SOA <->
// blocked), output writeback, the convertibility matrix the engine's
// negotiation relies on, and Portfolio::bs as the one generator: every
// layout holds the same draw, and the draw itself is pinned.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
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
  Portfolio soa = Portfolio::bs(64, Layout::kBsSoa, 5);
  PortfolioView v = soa.view();
  EXPECT_EQ(v.layout, Layout::kBsSoa);
  EXPECT_EQ(v.soa.spot.data(), soa.view().soa.spot.data());
  EXPECT_EQ(v.soa.call.data(), soa.view().soa.call.data());
  // Writes through a copied view land in the portfolio: that's how
  // kernels return prices without copying.
  v.soa.call[7] = 42.0;
  EXPECT_EQ(soa.view().soa.call[7], 42.0);

  // A caller's own AOS slots are viewed in place too.
  core::BsBatchAos aos;
  aos.options.resize(64);
  PortfolioView w = core::view_of(aos);
  EXPECT_EQ(w.layout, Layout::kBsAos);
  EXPECT_EQ(w.aos.options.data(), aos.options.data());
  EXPECT_EQ(w.size(), 64u);
}

TEST(PortfolioView, IdentityConversionIsZeroCopy) {
  Portfolio soa = Portfolio::bs(32, Layout::kBsSoa, 3);
  Arena a;
  ConvertStats stats;
  PortfolioView v = core::convert(soa.view(), Layout::kBsSoa, a, &stats);
  EXPECT_EQ(v.soa.spot.data(), soa.view().soa.spot.data());  // same memory, no copy
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(a.bytes_in_use(), 0u);
}

TEST(PortfolioView, ConvertedViewsAreCacheAlignedArenaMemory) {
  Portfolio aos = Portfolio::bs(100, Layout::kBsAos, 7);
  Arena a;
  ConvertStats stats;
  PortfolioView v = core::convert(aos.view(), Layout::kBsSoa, a, &stats);
  EXPECT_TRUE(is_cache_aligned(v.soa.spot.data()));
  EXPECT_TRUE(is_cache_aligned(v.soa.strike.data()));
  EXPECT_TRUE(is_cache_aligned(v.soa.years.data()));
  EXPECT_TRUE(is_cache_aligned(v.soa.call.data()));
  EXPECT_TRUE(is_cache_aligned(v.soa.put.data()));
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GE(stats.seconds, 0.0);
  EXPECT_GE(a.bytes_in_use(), stats.bytes);
}

// --- Per-option access ------------------------------------------------------

namespace {

constexpr Layout kBsLayouts[] = {Layout::kBsAos, Layout::kBsSoa, Layout::kBsSoaF,
                                 Layout::kBsBlocked};

// What a BS layout stores for a double: itself, or its float rounding.
double stored(Layout l, double x) {
  return l == Layout::kBsSoaF ? static_cast<double>(static_cast<float>(x)) : x;
}

}  // namespace

// Every layout of one (n, seed) holds the AOS draw, so the accessors must
// read the AOS records back from each (float-rounded on kBsSoaF), and a
// ragged kBsBlocked tail's padding lanes read as the final option.
TEST(PortfolioView, BsAccessorsReadEveryLayoutAsTheAosDraw) {
  constexpr std::size_t n = 37;  // 4 * 8 + 5: ragged blocked tail
  Portfolio aos = Portfolio::bs(n, Layout::kBsAos, 5);
  const core::BsAosView& ref = aos.view().aos;
  for (const Layout l : kBsLayouts) {
    Portfolio pf = Portfolio::bs(n, l, 5);
    const PortfolioView& v = pf.view();
    for (std::size_t i = 0; i < n; ++i) {
      const core::BsLane got = core::bs_lane(v, i);
      EXPECT_EQ(got.spot, stored(l, ref.options[i].spot)) << to_string(l) << " " << i;
      EXPECT_EQ(got.strike, stored(l, ref.options[i].strike)) << to_string(l) << " " << i;
      EXPECT_EQ(got.years, stored(l, ref.options[i].years)) << to_string(l) << " " << i;
    }
    const core::BsScalars s = core::bs_scalars(v);
    EXPECT_EQ(s.rate, stored(l, ref.rate)) << to_string(l);
    EXPECT_EQ(s.vol, stored(l, ref.vol)) << to_string(l);
    EXPECT_EQ(s.dividend, stored(l, ref.dividend)) << to_string(l);
    if (l == Layout::kBsBlocked) {
      for (std::size_t i = n; i < v.blocked.num_blocks() * 8; ++i) {
        EXPECT_EQ(core::bs_lane(v, i).spot, ref.options[n - 1].spot) << i;
        EXPECT_EQ(core::bs_lane(v, i).years, ref.options[n - 1].years) << i;
      }
    }
  }
}

// Inputs and outputs are written independently, and read back exactly
// (every value below is a float). Writing the last option of a ragged
// kBsBlocked view leaves its padding lanes alone.
TEST(PortfolioView, BsAccessorsRoundTripInputsOutputsAndScalars) {
  constexpr std::size_t n = 37;
  for (const Layout l : kBsLayouts) {
    Portfolio pf = Portfolio::bs(n, l, 6);
    PortfolioView v = pf.view();
    const core::BsLane pad = core::bs_lane(v, n - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i);
      core::set_bs_outputs(v, i, 1000.0 + x, 2000.0 + x);
      core::set_bs_inputs(v, i, 100.0 + x, 50.0 + 0.5 * x, 0.25 * (x + 1.0));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i);
      const core::BsLane got = core::bs_lane(v, i);
      EXPECT_EQ(got.spot, 100.0 + x) << to_string(l) << " " << i;
      EXPECT_EQ(got.strike, 50.0 + 0.5 * x) << to_string(l) << " " << i;
      EXPECT_EQ(got.years, 0.25 * (x + 1.0)) << to_string(l) << " " << i;
      EXPECT_EQ(got.call, 1000.0 + x) << to_string(l) << " " << i;
      EXPECT_EQ(got.put, 2000.0 + x) << to_string(l) << " " << i;
    }
    core::set_bs_outputs(v, 3, -1.0, -2.0);
    EXPECT_EQ(core::bs_lane(v, 3).spot, 103.0) << to_string(l);
    if (l == Layout::kBsBlocked) {
      for (std::size_t i = n; i < v.blocked.num_blocks() * 8; ++i) {
        EXPECT_EQ(core::bs_lane(v, i).spot, pad.spot) << i;
        EXPECT_EQ(core::bs_lane(v, i).call, pad.call) << i;
      }
    }

    const core::BsScalars s{0.03125, 0.375, 0.0625};
    core::set_bs_scalars(v, s);
    EXPECT_EQ(core::bs_scalars(v), s) << to_string(l);
    EXPECT_EQ(core::bs_lane(v, 0).spot, 100.0) << to_string(l) << ": scalars touched the arrays";
  }
}

TEST(PortfolioView, SinglePrecisionAccessorsNarrowToFloat) {
  Portfolio pf = Portfolio::bs(16, Layout::kBsSoaF, 7);
  PortfolioView v = pf.view();
  core::set_bs_inputs(v, 0, 0.1, 1e-50, 1e40);
  core::set_bs_outputs(v, 0, 1.0 / 3.0, -1e-50);
  const core::BsLane got = core::bs_lane(v, 0);
  EXPECT_EQ(got.spot, static_cast<double>(0.1f));
  EXPECT_NE(got.spot, 0.1);
  EXPECT_EQ(got.strike, 0.0);  // underflows the float range
  EXPECT_EQ(got.years, std::numeric_limits<double>::infinity());
  EXPECT_EQ(got.call, static_cast<double>(1.0f / 3.0f));
  EXPECT_EQ(got.put, 0.0);
  EXPECT_EQ(v.sp.spot[0], 0.1f);

  core::set_bs_scalars(v, {0.1, 0.3, 0.07});
  EXPECT_EQ(v.sp.rate, 0.1f);
  EXPECT_EQ(v.sp.vol, 0.3f);
  EXPECT_EQ(v.sp.dividend, 0.07f);
  const core::BsScalars s = core::bs_scalars(v);
  EXPECT_EQ(s.rate, static_cast<double>(0.1f));
  EXPECT_EQ(s.vol, static_cast<double>(0.3f));
  EXPECT_EQ(s.dividend, static_cast<double>(0.07f));
}

TEST(PortfolioView, BsAccessorsRejectNonBsLayouts) {
  for (const Layout l : kBsLayouts) EXPECT_TRUE(core::is_bs(l));
  const std::vector<core::OptionSpec> specs = core::make_option_workload(4, 1);
  for (PortfolioView v : {core::view_of(std::span<const core::OptionSpec>(specs)),
                          core::paths_view(4)}) {
    EXPECT_FALSE(core::is_bs(v.layout));
    EXPECT_THROW(core::bs_lane(v, 0), std::invalid_argument);
    EXPECT_THROW(core::set_bs_inputs(v, 0, 1.0, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(core::set_bs_outputs(v, 0, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(core::bs_scalars(v), std::invalid_argument);
    EXPECT_THROW(core::set_bs_scalars(v, {0.0, 0.2, 0.0}), std::invalid_argument);
  }
}

// --- Round trips ------------------------------------------------------------

TEST(Convert, AosSoaRoundTripIsBitwise) {
  Portfolio book = Portfolio::bs(257, Layout::kBsAos, 11);  // odd n: exercises tails
  const core::BsAosView aos = book.view().aos;
  // Seed the outputs so the round trip must carry them too.
  for (std::size_t i = 0; i < aos.size(); ++i) {
    aos.options[i].call = 1.0 + static_cast<double>(i);
    aos.options[i].put = 2.0 + static_cast<double>(i);
  }
  Arena a;
  PortfolioView soa = core::convert(book.view(), Layout::kBsSoa, a);
  PortfolioView back = core::convert(soa, Layout::kBsAos, a);
  ASSERT_EQ(back.aos.size(), aos.size());
  EXPECT_EQ(back.aos.rate, aos.rate);
  EXPECT_EQ(back.aos.vol, aos.vol);
  EXPECT_EQ(0, std::memcmp(back.aos.options.data(), aos.options.data(),
                           aos.size() * sizeof(core::BsOptionAos)));
}

TEST(Convert, AosBlockedRoundTripIsBitwiseAndTailIsPadded) {
  Portfolio book = Portfolio::bs(21, Layout::kBsAos, 13);  // 21 = 2*8 + 5: ragged tail
  const core::BsAosView aos = book.view().aos;
  Arena a;
  PortfolioView blk = core::convert(book.view(), Layout::kBsBlocked, a);
  ASSERT_EQ(blk.blocked.n, 21u);
  constexpr std::size_t b = core::kBsBlock;
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
  Portfolio book = Portfolio::bs(50, Layout::kBsAos, 19);
  const core::BsAosView aos = book.view().aos;
  Arena a;
  PortfolioView soa = core::convert(book.view(), Layout::kBsSoa, a);
  for (std::size_t i = 0; i < 50; ++i) {
    soa.soa.call[i] = 10.0 + static_cast<double>(i);
    soa.soa.put[i] = 20.0 + static_cast<double>(i);
  }
  const std::size_t bytes = core::copy_outputs(soa, book.view());
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
  Portfolio book = Portfolio::bs(150, Layout::kBsAos, 23);  // chunks of 64, 64, 22
  const PortfolioView src = book.view();
  const core::BsAosView& aos = src.aos;
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

// A same-layout copy_inputs (how a fused group is assembled) copies the
// three inputs and nothing else; a blocked target still pads its tail.
TEST(Convert, SameLayoutCopyInputsLeavesTheOutputs) {
  constexpr std::size_t n = 37;
  for (const Layout l : kBsLayouts) {
    Portfolio src = Portfolio::bs(n, l, 1);
    Portfolio dst = Portfolio::bs(n, l, 2);
    for (std::size_t i = 0; i < n; ++i) core::set_bs_outputs(dst.view(), i, -3.0, -4.0);
    EXPECT_EQ(core::copy_inputs(src.view(), dst.view()),
              n * 3 * (l == Layout::kBsSoaF ? sizeof(float) : sizeof(double)));
    const std::size_t lanes = l == Layout::kBsBlocked ? dst.view().blocked.num_blocks() * 8 : n;
    for (std::size_t i = 0; i < lanes; ++i) {
      const core::BsLane want = core::bs_lane(src.view(), std::min(i, n - 1));
      const core::BsLane got = core::bs_lane(dst.view(), i);
      EXPECT_EQ(got.spot, want.spot) << to_string(l) << " " << i;
      EXPECT_EQ(got.strike, want.strike) << to_string(l) << " " << i;
      EXPECT_EQ(got.years, want.years) << to_string(l) << " " << i;
      if (i < n) {
        EXPECT_EQ(got.call, -3.0) << to_string(l) << " " << i;
        EXPECT_EQ(got.put, -4.0) << to_string(l) << " " << i;
      }
    }
  }
}

namespace {

// Lanes a view stores: n, or every lane of its blocks for kBsBlocked.
std::size_t stored_lanes(const PortfolioView& v) {
  return v.layout == Layout::kBsBlocked ? v.blocked.num_blocks() * core::kBsBlock : v.size();
}

std::size_t elem_bytes(Layout l) { return l == Layout::kBsSoaF ? sizeof(float) : sizeof(double); }

// Bytes a Black–Scholes layout of n options occupies, blocked padding
// included.
std::size_t layout_bytes(Layout l, std::size_t n) {
  if (l == Layout::kBsBlocked) n = (n + core::kBsBlock - 1) / core::kBsBlock * core::kBsBlock;
  return 5 * n * elem_bytes(l);
}

// Every stored lane of `got` equals that of `want`, bit for bit.
void expect_same_lanes(const PortfolioView& got, const PortfolioView& want, const char* op,
                       Layout from, std::size_t n) {
  ASSERT_EQ(stored_lanes(got), stored_lanes(want));
  for (std::size_t i = 0; i < stored_lanes(want); ++i) {
    const core::BsLane g = core::bs_lane(got, i), w = core::bs_lane(want, i);
    ASSERT_EQ(std::memcmp(&g, &w, sizeof g), 0)
        << op << " " << to_string(from) << " -> " << to_string(want.layout) << " n=" << n
        << " lane " << i;
  }
}

}  // namespace

// The range copies and convert() write exactly what the per-option
// accessors would, for every ordered pair of the Black–Scholes layouts:
// copy_inputs the three inputs (a blocked target's padding lanes take the
// final option), copy_outputs call and put of the logical lanes only,
// convert all five fields with the padding and the shared scalars. Values
// are float-rounded on kBsSoaF, and each returns the bytes it wrote.
TEST(Convert, EveryOrderedPairCopiesLikeTheAccessors) {
  for (const std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1003u}) {
    for (const Layout from : kBsLayouts) {
      Portfolio src = Portfolio::bs(n, from, 3);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i);
        core::set_bs_outputs(src.view(), i, 0.1 + x / 3.0, 7.0 / (x + 1.0));
      }
      PortfolioView sv = src.view();
      core::set_bs_scalars(sv, {0.03, 0.25, 0.02});
      for (const Layout to : kBsLayouts) {
        const auto want_from = [&](bool inputs, bool outputs) {
          Portfolio want = Portfolio::bs(n, to, 4);
          for (std::size_t i = 0; i < stored_lanes(want.view()); ++i) {
            if (i >= n && !inputs) break;
            const core::BsLane l = core::bs_lane(sv, std::min(i, n - 1));
            if (inputs) core::set_bs_inputs(want.view(), i, l.spot, l.strike, l.years);
            if (outputs) core::set_bs_outputs(want.view(), i, l.call, l.put);
          }
          return want;
        };

        Portfolio in = Portfolio::bs(n, to, 4);
        EXPECT_EQ(core::copy_inputs(sv, in.view()), n * 3 * elem_bytes(to));
        expect_same_lanes(in.view(), want_from(true, false).view(), "copy_inputs", from, n);

        Portfolio out = Portfolio::bs(n, to, 4);
        EXPECT_EQ(core::copy_outputs(sv, out.view()), n * 2 * elem_bytes(to));
        expect_same_lanes(out.view(), want_from(false, true).view(), "copy_outputs", from, n);

        Arena a;
        ConvertStats stats;
        const PortfolioView conv = core::convert(sv, to, a, &stats);
        if (from == to) {  // the identity hands back the source itself
          EXPECT_EQ(stats.bytes, 0u);
          expect_same_lanes(conv, sv, "convert", from, n);
          continue;
        }
        EXPECT_EQ(stats.bytes, layout_bytes(to, n));
        Portfolio want = want_from(true, true);
        PortfolioView wv = want.view();
        core::set_bs_scalars(wv, core::bs_scalars(sv));
        EXPECT_EQ(core::bs_scalars(conv), core::bs_scalars(wv));
        expect_same_lanes(conv, wv, "convert", from, n);
      }
    }
  }
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

// The kBsSoa book holds the very options of the kBsAos book of the same
// (n, seed), field by field — the AOS reference validates the SOA kernels.
TEST(WorkloadCoupling, SoaGeneratorEqualsConvertedAosGeneratorBitwise) {
  const std::size_t n = 321;
  Portfolio aos_pf = Portfolio::bs(n, Layout::kBsAos, 77);
  Portfolio soa_pf = Portfolio::bs(n, Layout::kBsSoa, 77);
  const core::BsAosView& aos = aos_pf.view().aos;
  const core::BsSoaView& soa = soa_pf.view().soa;
  ASSERT_EQ(soa.size(), n);
  EXPECT_EQ(soa.rate, aos.rate);
  EXPECT_EQ(soa.vol, aos.vol);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(soa.spot[i], aos.options[i].spot) << i;
    EXPECT_EQ(soa.strike[i], aos.options[i].strike) << i;
    EXPECT_EQ(soa.years[i], aos.options[i].years) << i;
  }
}

// Portfolio::bs is the one generator: every layout of one (n, seed) holds
// exactly what converting the kBsAos book gives — inputs, zeroed outputs
// and the blocked padding lanes, bit for bit. This is what makes
// cross-layout validation (AOS reference vs SOA kernel) exact.
TEST(WorkloadCoupling, PortfolioBsIsBitwiseEqualAcrossLayouts) {
  for (const std::size_t n : {1u, 7u, 8u, 37u, 129u}) {
    Portfolio aos = Portfolio::bs(n, Layout::kBsAos, 31);
    for (const Layout l : kBsLayouts) {
      Portfolio pf = Portfolio::bs(n, l, 31);
      Arena a;
      const PortfolioView conv = core::convert(aos.view(), l, a);
      const PortfolioView& v = pf.view();
      ASSERT_EQ(v.size(), n) << to_string(l);
      EXPECT_EQ(core::bs_scalars(v), core::bs_scalars(conv)) << to_string(l);
      const std::size_t lanes = l == Layout::kBsBlocked ? v.blocked.num_blocks() * 8 : n;
      for (std::size_t i = 0; i < lanes; ++i) {
        const core::BsLane got = core::bs_lane(v, i), want = core::bs_lane(conv, i);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << to_string(l) << " n=" << n
                                                           << " i=" << i;
      }
    }
  }
}

// The draw itself, pinned: option i's (spot, strike, years) for seeds 0,
// 1 and 42 as the generator has always produced them. Every exhibit and
// test prices these books, so a changed draw changes every number.
TEST(WorkloadCoupling, GoldenDrawIsPinned) {
  struct Golden {
    std::uint64_t seed;
    std::size_t i;
    double spot, strike, years;
  };
  constexpr Golden kGolden[] = {
      {0, 0, 0x1.28b29d0941b77p+6, 0x1.c460e1de8b951p+6, 0x1.71a0a677f8b52p-1},
      {0, 1, 0x1.516b092642132p+7, 0x1.19eb482a1ae14p+7, 0x1.1264c6e5da3cp+1},
      {0, 7, 0x1.44acf3b8893e7p+7, 0x1.2cf9f509d7d6fp+7, 0x1.fc143df4ff2f7p+1},
      {0, 999, 0x1.89589d94fcc89p+3, 0x1.6936aa5a39c1p+6, 0x1.952837de9bc5cp-1},
      {1, 0, 0x1.9d987f2edbbc3p+6, 0x1.13f3a87f453fdp+7, 0x1.e3f9785b36f4p-1},
      {1, 1, 0x1.38f03a944c029p+6, 0x1.50efb2a9bb872p+5, 0x1.065f4b0dcd872p+2},
      {1, 7, 0x1.3a300f0aa09bp+7, 0x1.522e57b786cddp+5, 0x1.872dbb858dd1ep-2},
      {1, 999, 0x1.b62c8c2f6e726p+6, 0x1.2e427b3a9b998p+7, 0x1.2876c0866df84p+2},
      {42, 0, 0x1.031ac03b178bap+6, 0x1.5c91029218ac3p+5, 0x1.3dcbf785d37d1p+2},
      {42, 1, 0x1.82f15ad0a1884p+6, 0x1.09d44053f0e89p+7, 0x1.0ccf62b1886bp+1},
      {42, 7, 0x1.43ee9b1bcdde6p+7, 0x1.d68bfbbbfff42p+6, 0x1.001ae5f9c097ep+2},
      {42, 999, 0x1.1446fe0d803acp+7, 0x1.7f43d2d33ad96p+7, 0x1.5a30287a06b0fp-1},
  };
  for (const Layout l : kBsLayouts) {
    for (const std::uint64_t seed : {0u, 1u, 42u}) {
      Portfolio pf = Portfolio::bs(1000, l, seed);
      for (const Golden& g : kGolden) {
        if (g.seed != seed) continue;
        const core::BsLane got = core::bs_lane(pf.view(), g.i);
        EXPECT_EQ(got.spot, stored(l, g.spot)) << to_string(l) << " " << seed << "/" << g.i;
        EXPECT_EQ(got.strike, stored(l, g.strike)) << to_string(l) << " " << seed << "/" << g.i;
        EXPECT_EQ(got.years, stored(l, g.years)) << to_string(l) << " " << seed << "/" << g.i;
        EXPECT_EQ(got.call, 0.0);
        EXPECT_EQ(got.put, 0.0);
      }
    }
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

TEST(PortfolioOwner, PathsCarriesOnlyACount) {
  Portfolio p = Portfolio::paths(4096);
  EXPECT_EQ(p.layout(), Layout::kPaths);
  EXPECT_EQ(p.size(), 4096u);
  EXPECT_EQ(p.arena_bytes(), 0u);
}
