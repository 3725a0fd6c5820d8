#include "finbench/kernels/binomial.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/scratch_pool.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/simd/vec.hpp"

namespace finbench::kernels::binomial {

namespace {

// CRR lattice parameters, pre-scaled by the per-step discount factor so the
// inner loop is exactly Lis. 2's `puByDf*Call[j+1] + pdByDf*Call[j]`.
struct CrrParams {
  double pu_by_df;
  double pd_by_df;
  double up;    // u
  double down;  // d
};

CrrParams crr(const core::OptionSpec& o, int steps) {
  const double dt = o.years / steps;
  const double u = std::exp(o.vol * std::sqrt(dt));
  const double d = 1.0 / u;
  // Risk-neutral drift is r - q; discounting stays at r.
  const double growth = std::exp((o.rate - o.dividend) * dt);
  const double pu = (growth - d) / (u - d);
  if (pu < 0.0 || pu > 1.0) {
    throw std::invalid_argument("binomial: risk-neutral probability outside [0,1]; "
                                "increase steps or reduce |r - q|*dt");
  }
  const double df = std::exp(-o.rate * dt);
  return {pu * df, (1.0 - pu) * df, u, d};
}

double payoff(const core::OptionSpec& o, double s) {
  return o.type == core::OptionType::kCall ? std::max(s - o.strike, 0.0)
                                           : std::max(o.strike - s, 0.0);
}

}  // namespace

namespace detail {

CrrDerived crr_derived(const core::OptionSpec& o, int steps) {
  const CrrParams p = crr(o, steps);
  return {p.pu_by_df, p.pd_by_df, p.up, p.down};
}

double payoff_of(const core::OptionSpec& o, double s) { return payoff(o, s); }

}  // namespace detail

// --- Reference (Lis. 2) ----------------------------------------------------

double price_one_reference(const core::OptionSpec& opt, int steps) {
  arch::AlignedVector<double> lattice(static_cast<std::size_t>(steps) + 1);
  return price_one_reference(opt, steps, {lattice.data(), lattice.size()});
}

double price_one_reference(const core::OptionSpec& opt, int steps, std::span<double> lattice) {
  assert(lattice.size() >= static_cast<std::size_t>(steps) + 1);
  const CrrParams p = crr(opt, steps);
  double* call = lattice.data();

  // Leaves: S * u^j * d^(N-j), j = 0..N (j counts up-moves).
  double s = opt.spot * std::pow(p.down, steps);
  const double ratio = p.up / p.down;
  for (int j = 0; j <= steps; ++j) {
    call[j] = payoff(opt, s);
    s *= ratio;
  }

  const bool american = opt.style == core::ExerciseStyle::kAmerican;
  for (int i = steps; i > 0; --i) {
    if (american) {
      // Spot at node (i-1, j) is S * u^j * d^(i-1-j).
      double node_s = opt.spot * std::pow(p.down, i - 1);
      for (int j = 0; j <= i - 1; ++j) {
        const double cont = p.pu_by_df * call[j + 1] + p.pd_by_df * call[j];
        call[j] = std::max(cont, payoff(opt, node_s));
        node_s *= ratio;
      }
    } else {
      for (int j = 0; j <= i - 1; ++j) {
        call[j] = p.pu_by_df * call[j + 1] + p.pd_by_df * call[j];
      }
    }
  }
  return call[0];
}

void price_reference(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                     core::ScratchPool* scratch) {
  static obs::Counter& priced = obs::counter("binomial.options_priced");
  priced.add(opts.size());
  assert(out.size() >= opts.size());
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(steps) + 1);
  const std::span<double> lattice{buf.data(), static_cast<std::size_t>(steps) + 1};
  for (std::size_t o = 0; o < opts.size(); ++o) {
    out[o] = price_one_reference(opts[o], steps, lattice);
  }
}

// --- Basic: pragmas only ----------------------------------------------------

void price_basic(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                 core::ScratchPool* scratch) {
  static obs::Counter& priced = obs::counter("binomial.options_priced");
  priced.add(opts.size());
  assert(out.size() >= opts.size());
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(steps) + 1);
  double* const call = buf.data();
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const core::OptionSpec& opt = opts[o];
    const CrrParams p = crr(opt, steps);
    double s = opt.spot * std::pow(p.down, steps);
    const double ratio = p.up / p.down;
    for (int j = 0; j <= steps; ++j) {
      call[j] = payoff(opt, s);
      s *= ratio;
    }
    const double pu = p.pu_by_df, pd = p.pd_by_df;
    double* c = call;
    for (int i = steps; i > 0; --i) {
      // Inner-loop autovectorization — c[j+1] is the unaligned load the
      // paper notes; this is all the "basic" level is allowed to do.
#pragma omp simd
      for (int j = 0; j <= i - 1; ++j) c[j] = pu * c[j + 1] + pd * c[j];
    }
    out[o] = c[0];
  }
}

// --- Intermediate / Advanced: SIMD across options ---------------------------

namespace {

// One level of the in-place backward induction over W lanes: Call[j]
// becomes the discounted expectation of Call[j] and Call[j+1], j < i.
template <int W>
void european_level(double* call, int i, simd::Vec<double, W> pu, simd::Vec<double, W> pd) {
  using V = simd::Vec<double, W>;
  for (int j = 0; j <= i - 1; ++j) {
    const V up = V::load(call + static_cast<std::size_t>(j + 1) * W);
    const V dn = V::load(call + static_cast<std::size_t>(j) * W);
    fmadd(pu, up, pd * dn).store(call + static_cast<std::size_t>(j) * W);
  }
}

// The exercise node shared by american_level and american_tile_pass:
// max(continuation, sign·S − sign·K) in one fmadd, nsk = −sign·K on
// American lanes and −inf on European ones, whose max keeps the
// continuation value. Both reductions evaluate every node through this one
// expression (DESIGN.md §4).
template <int W>
simd::Vec<double, W> american_node(simd::Vec<double, W> pu, simd::Vec<double, W> pd,
                                   simd::Vec<double, W> up, simd::Vec<double, W> dn,
                                   simd::Vec<double, W> sign, simd::Vec<double, W> node_s,
                                   simd::Vec<double, W> nsk) {
  return max(fmadd(pu, up, pd * dn), fmadd(sign, node_s, nsk));
}

// The American level needs the node spot prices: node (i-1, j) is at
// S·u^j·d^(i-1-j), rebuilt incrementally from the lane's `level` base
// S·d^(i-1) and its u/d ratio.
template <int W>
void american_level(double* call, int i, simd::Vec<double, W> pu, simd::Vec<double, W> pd,
                    simd::Vec<double, W> level, simd::Vec<double, W> ratio,
                    simd::Vec<double, W> sign, simd::Vec<double, W> nsk) {
  using V = simd::Vec<double, W>;
  V node_s = level;
  for (int j = 0; j <= i - 1; ++j) {
    const V up = V::load(call + static_cast<std::size_t>(j + 1) * W);
    const V dn = V::load(call + static_cast<std::size_t>(j) * W);
    american_node<W>(pu, pd, up, dn, sign, node_s, nsk)
        .store(call + static_cast<std::size_t>(j) * W);
    node_s *= ratio;
  }
}

// --- Register tiling (Lis. 3) -----------------------------------------------

// One tile pass: reduce the W-wide Call array (length m+1) by TS time
// steps. The TS-deep Tile lives in registers; each Call value is loaded
// and stored exactly once per pass. Kept out of line: inlined into the
// group loop, GCC 12 spills the tile (~25% slower at W = 8).
template <int W, int TS, bool Unroll>
[[gnu::noinline]] void tile_pass(double* call, int m, simd::Vec<double, W> pu,
                                 simd::Vec<double, W> pd) {
  using V = simd::Vec<double, W>;
  V tile[TS];

  // Triangle init (the `...` of Lis. 3): Tile[j] holds the prefix value at
  // position j after (TS-1-j) reduction steps, so the steady-state loop's
  // diagonal recurrence lines up (see DESIGN.md §4).
  for (int j = 0; j < TS; ++j) tile[j] = V::load(call + static_cast<std::size_t>(j) * W);
  for (int s = 1; s < TS; ++s) {
    for (int j = 0; j <= TS - 1 - s; ++j) tile[j] = fmadd(pu, tile[j + 1], pd * tile[j]);
  }

  // Steady state: stream Call[i] through the register tile. For the large
  // step counts of Fig. 5 the Call array exceeds L1; prefetch the next
  // column while the tile reduction runs (the paper's intermediate-level
  // software-prefetch technique).
  for (int i = TS; i <= m; ++i) {
    simd::prefetch_read(call + static_cast<std::size_t>(i + 4) * W);
    V m1 = V::load(call + static_cast<std::size_t>(i) * W);
    if constexpr (Unroll) {
#pragma GCC unroll 65534
      for (int j = TS - 1; j >= 0; --j) {
        const V m2 = fmadd(pu, m1, pd * tile[j]);
        tile[j] = m1;
        m1 = m2;
      }
    } else {
      for (int j = TS - 1; j >= 0; --j) {
        const V m2 = fmadd(pu, m1, pd * tile[j]);
        tile[j] = m1;
        m1 = m2;
      }
    }
    m1.store(call + static_cast<std::size_t>(i - TS) * W);
  }
}

// tile_pass for packs holding American lanes. Tile slot j produces level
// m-TS+j and carries that level's node spot in spot[j]: seeded from the
// `level *= invd` chain reduce_pack walks, then advanced by `*= ratio`
// once per node of its level, so every level sees exactly the node spots
// american_level would (DESIGN.md §4), and evaluates them through the same
// american_node. On return `level` is S·d^(m-TS), where TS single levels
// would leave it.
template <int W, int TS>
[[gnu::noinline]] void american_tile_pass(double* call, int m, simd::Vec<double, W> pu,
                                          simd::Vec<double, W> pd, simd::Vec<double, W> invd,
                                          simd::Vec<double, W> ratio, simd::Vec<double, W> sign,
                                          simd::Vec<double, W> nsk, simd::Vec<double, W>& level) {
  using V = simd::Vec<double, W>;
  V tile[TS], spot[TS];
  V lv = level;
  for (int j = TS - 1; j >= 0; --j) {
    lv *= invd;
    spot[j] = lv;
  }
  level = lv;
  const auto node = [&](V up, V dn, int slot) {
    const V v = american_node<W>(pu, pd, up, dn, sign, spot[slot], nsk);
    spot[slot] *= ratio;
    return v;
  };

  // Triangle init as in tile_pass: reduction step s produces level m-s,
  // which is slot TS-s.
  for (int j = 0; j < TS; ++j) tile[j] = V::load(call + static_cast<std::size_t>(j) * W);
  for (int s = 1; s < TS; ++s) {
    for (int j = 0; j <= TS - 1 - s; ++j) tile[j] = node(tile[j + 1], tile[j], TS - s);
  }
  for (int i = TS; i <= m; ++i) {
    simd::prefetch_read(call + static_cast<std::size_t>(i + 4) * W);
    V m1 = V::load(call + static_cast<std::size_t>(i) * W);
    for (int j = TS - 1; j >= 0; --j) {
      const V m2 = node(m1, tile[j], j);
      tile[j] = m1;
      m1 = m2;
    }
    m1.store(call + static_cast<std::size_t>(i - TS) * W);
  }
}

// Tile depths: the European tile fits the zmm/ymm register file with room
// to spare; an American slot adds its node-spot register, and 16 of those
// spill, so American tiles are 4 levels deep.
constexpr int kTileSize = 16;
constexpr int kAmericanTileSize = 4;

// One pack: W options side by side, one per lane, Call[j] a W-wide vector.
// Lane l prices *opt[l] over a depth[l]-deep lattice; depths ascend across
// the lanes and the deepest, S = depth[W-1], is where the induction
// starts. When it reaches level depth[l], lane l gets its payoff leaves
// and its S·d^s node base written in; whatever the lane computed above
// that level is overwritten, so no mask is needed and a lane's arithmetic
// depends on its own option alone. An equal-depth pack is the paper's
// one-option-per-lane batch. `call` holds (S+1) x W doubles; the prices
// come back in call[0..W).
//
// Between two lane start levels the pack reduces one level at a time (the
// paper's intermediate level, TS = 0) or in register tiles (Lis. 3) cut so
// that none crosses the next start level: TS-level tile_passes (Unroll:
// fully unrolled, fig5's row) for an all-European pack, 4-level
// american_tile_passes otherwise, and single levels for the remainder.
// Either way every node gets the same continuation and exercise values, so
// every TS returns the same bits (DESIGN.md §4).
template <int W, int TS, bool Unroll = false>
void reduce_pack(const core::OptionSpec* const* opt, const int* depth, double* call) {
  using V = simd::Vec<double, W>;
  alignas(64) double pu_a[W], pd_a[W], ratio_a[W], invd_a[W], sign_a[W], nsk_a[W];
  alignas(64) double base_a[W], level_a[W];
  bool any_american = false;
  for (int l = 0; l < W; ++l) {
    const core::OptionSpec& o = *opt[l];
    const CrrParams p = crr(o, depth[l]);
    const bool american = o.style == core::ExerciseStyle::kAmerican;
    pu_a[l] = p.pu_by_df;
    pd_a[l] = p.pd_by_df;
    ratio_a[l] = p.up / p.down;
    invd_a[l] = 1.0 / p.down;
    sign_a[l] = o.type == core::OptionType::kCall ? 1.0 : -1.0;
    nsk_a[l] = american ? -sign_a[l] * o.strike : -std::numeric_limits<double>::infinity();
    any_american |= american;
    base_a[l] = o.spot * std::pow(p.down, depth[l]);
    level_a[l] = 0.0;
  }
  const V pu = V::load(pu_a), pd = V::load(pd_a), ratio = V::load(ratio_a);
  const V invd = V::load(invd_a), sign = V::load(sign_a), nsk = V::load(nsk_a);

  const int top = depth[W - 1];
  // Lanes that start below the top compute from zeroed cells until then:
  // finite and never denormal, whatever the buffer held before.
  if (depth[0] < top) std::fill(call, call + static_cast<std::size_t>(top + 1) * W, 0.0);
  V level(0.0);  // S·d^i per lane at the current level i
  int next = W - 1;  // deepest lane not yet started
  for (int i = top;;) {
    if (next >= 0 && depth[next] == i) {
      level.store(level_a);
      for (; next >= 0 && depth[next] == i; --next) {
        const core::OptionSpec& o = *opt[next];
        // Leaves: S * u^j * d^(i-j), j = 0..i.
        double s = base_a[next];
        for (int j = 0; j <= i; ++j) {
          call[static_cast<std::size_t>(j) * W + next] =
              o.type == core::OptionType::kCall ? std::max(s - o.strike, 0.0)
                                                : std::max(o.strike - s, 0.0);
          s *= ratio_a[next];
        }
        level_a[next] = base_a[next];
      }
      level = V::load(level_a);
    }
    if (i == 0) break;
    // Reduce down to the next lane start level (0 once every lane runs).
    const int stop = next >= 0 ? depth[next] : 0;
    if constexpr (TS > 0) {
      if (any_american) {
        for (; i - kAmericanTileSize >= stop; i -= kAmericanTileSize) {
          american_tile_pass<W, kAmericanTileSize>(call, i, pu, pd, invd, ratio, sign, nsk,
                                                   level);
        }
      } else {
        for (; i - TS >= stop; i -= TS) tile_pass<W, TS, Unroll>(call, i, pu, pd);
      }
    }
    for (; i > stop; --i) {
      if (any_american) {
        level *= invd;  // now S * d^(i-1)
        american_level<W>(call, i, pu, pd, level, ratio, sign, nsk);
      } else {
        european_level<W>(call, i, pu, pd);
      }
    }
  }
}

// A ragged last pack repeats its final option rather than running a
// scalar tail, so every option runs the same arithmetic wherever it sits
// in the batch (a coalesced member prices as it does alone).
template <int W, int TS, bool Unroll = false>
void price_simd(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                core::ScratchPool* scratch) {
  const std::size_t n = opts.size();
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(steps + 1) * W);
  double* const call = buf.data();
  for (std::size_t base = 0; base < n; base += W) {
    const core::OptionSpec* lane[W];
    int depth[W];
    for (int l = 0; l < W; ++l) {
      lane[l] = &opts[std::min(base + l, n - 1)];
      depth[l] = steps;
    }
    reduce_pack<W, TS, Unroll>(lane, depth, call);
    std::copy_n(call, std::min<std::size_t>(W, n - base), out.data() + base);
  }
}

// Mixed depths: each exercise class (European keys sort first) is packed
// from its own deep end, so no pack spans the class boundary and a class's
// one partial pack is its shallowest; a partial pack repeats its deepest
// lane (no scalar tail: every lane runs the same arithmetic). Packs run
// deepest first within a class, all in one leased lattice sized for the
// deepest option.
template <int W, int TS>
void price_packed_w(std::span<const core::OptionSpec> opts, std::span<const std::uint64_t> order,
                    std::span<double> out, core::ScratchPool* scratch) {
  const std::size_t n = order.size();
  if (n == 0) return;
  const std::size_t split = static_cast<std::size_t>(
      std::partition_point(order.begin(), order.end(),
                           [](std::uint64_t k) { return !key_american(k); }) -
      order.begin());
  int deepest = key_steps(order[n - 1]);
  if (split > 0) deepest = std::max(deepest, key_steps(order[split - 1]));
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(deepest + 1) * W);
  for (const auto& [first, last] : {std::pair{std::size_t{0}, split}, std::pair{split, n}}) {
    for (std::size_t hi = last; hi > first;) {
      const std::size_t lo = hi - first > static_cast<std::size_t>(W) ? hi - W : first;
      const core::OptionSpec* lane[W];
      int depth[W];
      for (int l = 0; l < W; ++l) {
        const std::uint64_t k = order[std::min(lo + l, hi - 1)];
        lane[l] = &opts[key_index(k)];
        depth[l] = key_steps(k);
      }
      reduce_pack<W, TS>(lane, depth, buf.data());
      for (std::size_t i = lo; i < hi; ++i) out[key_index(order[i])] = buf.data()[i - lo];
      hi = lo;
    }
  }
}

}  // namespace

void price_intermediate(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                        Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(w, [&](auto L) { price_simd<L, 0>(opts, steps, out, scratch); });
}

void price_advanced(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                    Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(w,
                           [&](auto L) { price_simd<L, kTileSize>(opts, steps, out, scratch); });
}

void price_packed(std::span<const core::OptionSpec> opts, std::span<const std::uint64_t> order,
                  std::span<double> out, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(w, [&](auto L) { price_packed_w<L, 0>(opts, order, out, scratch); });
}

void price_packed_tiled(std::span<const core::OptionSpec> opts,
                        std::span<const std::uint64_t> order, std::span<double> out, Width w,
                        core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(
      w, [&](auto L) { price_packed_w<L, kTileSize>(opts, order, out, scratch); });
}

namespace {

template <int TS>
void price_tile_dispatch(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                         Width w, core::ScratchPool* scratch) {
  simd::with_lanes<double>(w, [&](auto L) { price_simd<L, TS>(opts, steps, out, scratch); });
}

}  // namespace

void price_advanced_tile(std::span<const core::OptionSpec> opts, int steps,
                         std::span<double> out, int tile_size, Width w,
                         core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  switch (tile_size) {
    case 4: price_tile_dispatch<4>(opts, steps, out, w, scratch); return;
    case 8: price_tile_dispatch<8>(opts, steps, out, w, scratch); return;
    case 16: price_tile_dispatch<16>(opts, steps, out, w, scratch); return;
    case 32: price_tile_dispatch<32>(opts, steps, out, w, scratch); return;
    case 64: price_tile_dispatch<64>(opts, steps, out, w, scratch); return;
    default: throw std::invalid_argument("binomial: tile_size must be 4/8/16/32/64");
  }
}

void price_advanced_unrolled(std::span<const core::OptionSpec> opts, int steps,
                             std::span<double> out, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(
      w, [&](auto L) { price_simd<L, kTileSize, true>(opts, steps, out, scratch); });
}

}  // namespace finbench::kernels::binomial
