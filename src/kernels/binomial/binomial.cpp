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

// detail::exercise_cut_x for a lane whose lattice has up-factor `up`.
double cut_x(const core::OptionSpec& o, int steps, double up) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  if (o.style != core::ExerciseStyle::kAmerican) return -kInf;
  if (o.type == core::OptionType::kCall) return kInf;
  const double lnu = std::log(up);
  const double lks = std::log(o.strike / o.spot);
  // The kernels walk node spots as S·d^steps, times 1/d per level and u/d
  // per node, so a node spot is within ~2·steps ulps of S·u^(2j−L); x
  // carries the rounding of both logarithms. The margin, 2·kCutMargin·ln u
  // in log space, must dominate both (it does by orders of magnitude for
  // any priceable lattice; NaN or infinite inputs fail the test too).
  if (!(2.0 * detail::kCutMargin * lnu > (4.0 * steps + 16.0 + 4.0 * std::fabs(lks)) * kEps)) {
    return kInf;
  }
  return lks / lnu;
}

}  // namespace

namespace detail {

CrrDerived crr_derived(const core::OptionSpec& o, int steps) {
  const CrrParams p = crr(o, steps);
  return {p.pu_by_df, p.pd_by_df, p.up, p.down};
}

double payoff_of(const core::OptionSpec& o, double s) { return payoff(o, s); }

double exercise_cut_x(const core::OptionSpec& o, int steps) {
  return cut_x(o, steps, crr(o, steps).up);
}

int exercise_cut(int level, double x) {
  const double c = std::ceil((level + x) / 2.0 + kCutMargin);
  if (!(c < level + 1.0)) return level + 1;
  return c > 0.0 ? static_cast<int>(c) : 0;
}

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

// The continuation node every reduction shares: the discounted
// expectation of the up and down successors.
template <int W>
simd::Vec<double, W> european_node(simd::Vec<double, W> pu, simd::Vec<double, W> pd,
                                   simd::Vec<double, W> up, simd::Vec<double, W> dn) {
  return fmadd(pu, up, pd * dn);
}

// Nodes [j0, j1) of one in-place backward-induction level over W lanes:
// Call[j] becomes the continuation value of Call[j] and Call[j+1].
template <int W>
void european_nodes(double* call, int j0, int j1, simd::Vec<double, W> pu,
                    simd::Vec<double, W> pd) {
  using V = simd::Vec<double, W>;
  for (int j = j0; j < j1; ++j) {
    const V up = V::load(call + static_cast<std::size_t>(j + 1) * W);
    const V dn = V::load(call + static_cast<std::size_t>(j) * W);
    european_node<W>(pu, pd, up, dn).store(call + static_cast<std::size_t>(j) * W);
  }
}

// The exercise node shared by american_level and american_tile_pass:
// max(continuation, sign·S − sign·K) in one fmadd, nsk = −sign·K on
// American lanes and −inf on European ones, whose max keeps the
// continuation value. Both reductions evaluate every node below the
// exercise cut through this one expression, and every node at or above it
// through european_node, which returns the same bits there (DESIGN.md §4).
template <int W>
simd::Vec<double, W> american_node(simd::Vec<double, W> pu, simd::Vec<double, W> pd,
                                   simd::Vec<double, W> up, simd::Vec<double, W> dn,
                                   simd::Vec<double, W> sign, simd::Vec<double, W> node_s,
                                   simd::Vec<double, W> nsk) {
  return max(european_node<W>(pu, pd, up, dn), fmadd(sign, node_s, nsk));
}

// The American level needs the node spot prices: node (i-1, j) is at
// S·u^j·d^(i-1-j), rebuilt incrementally from the lane's `level` base
// S·d^(i-1) and its u/d ratio, up to the pack's exercise cut `cut`
// (detail::exercise_cut_x); the nodes above it are European.
template <int W>
void american_level(double* call, int i, simd::Vec<double, W> pu, simd::Vec<double, W> pd,
                    simd::Vec<double, W> level, simd::Vec<double, W> ratio,
                    simd::Vec<double, W> sign, simd::Vec<double, W> nsk, double cut) {
  using V = simd::Vec<double, W>;
  const int jc = std::min(i, detail::exercise_cut(i - 1, cut));
  V node_s = level;
  for (int j = 0; j < jc; ++j) {
    const V up = V::load(call + static_cast<std::size_t>(j + 1) * W);
    const V dn = V::load(call + static_cast<std::size_t>(j) * W);
    american_node<W>(pu, pd, up, dn, sign, node_s, nsk)
        .store(call + static_cast<std::size_t>(j) * W);
    node_s *= ratio;
  }
  european_nodes<W>(call, jc, i, pu, pd);
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
    for (int j = 0; j <= TS - 1 - s; ++j) tile[j] = european_node<W>(pu, pd, tile[j + 1], tile[j]);
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
        const V m2 = european_node<W>(pu, pd, m1, tile[j]);
        tile[j] = m1;
        m1 = m2;
      }
    } else {
      for (int j = TS - 1; j >= 0; --j) {
        const V m2 = european_node<W>(pu, pd, m1, tile[j]);
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
// american_node. At column i slot j produces node i-TS+j of its level;
// from the first column whose every slot lies at or above the pack's
// exercise cut `cut`, the columns run european_node and the spot chains
// stop. On return `level` is S·d^(m-TS), where TS single levels would
// leave it.
template <int W, int TS>
[[gnu::noinline]] void american_tile_pass(double* call, int m, simd::Vec<double, W> pu,
                                          simd::Vec<double, W> pd, simd::Vec<double, W> invd,
                                          simd::Vec<double, W> ratio, simd::Vec<double, W> sign,
                                          simd::Vec<double, W> nsk, double cut,
                                          simd::Vec<double, W>& level) {
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
  const auto column = [&](int i, auto&& f) {
    simd::prefetch_read(call + static_cast<std::size_t>(i + 4) * W);
    V m1 = V::load(call + static_cast<std::size_t>(i) * W);
    for (int j = TS - 1; j >= 0; --j) {
      const V m2 = f(m1, tile[j], j);
      tile[j] = m1;
      m1 = m2;
    }
    m1.store(call + static_cast<std::size_t>(i - TS) * W);
  };
  // The first column whose every slot j (node i-TS+j of level m-TS+j)
  // lies at or above its level's cut.
  int icut = TS;
  for (int j = 0; j < TS; ++j) {
    icut = std::max(icut, detail::exercise_cut(m - TS + j, cut) + TS - j);
  }

  // Triangle init as in tile_pass: reduction step s produces level m-s,
  // which is slot TS-s.
  for (int j = 0; j < TS; ++j) tile[j] = V::load(call + static_cast<std::size_t>(j) * W);
  for (int s = 1; s < TS; ++s) {
    for (int j = 0; j <= TS - 1 - s; ++j) tile[j] = node(tile[j + 1], tile[j], TS - s);
  }
  for (int i = TS; i < icut; ++i) column(i, node);
  for (int i = icut; i <= m; ++i) {
    column(i, [&](V up, V dn, int) { return european_node<W>(pu, pd, up, dn); });
  }
}

// Tile depths. The European tile is as deep as the register file holds
// with pu, pd and the two in-flight values: 16 of 32 zmm registers at 8
// wide, 8 of 16 ymm registers at 4 wide (16 spill there). An American slot
// adds its node-spot register, so American tiles are 4 levels deep.
template <int W>
constexpr int kTileSize = W >= 8 ? 16 : 8;
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
// every TS returns the same bits (DESIGN.md §4). A pack whose American
// lanes are all puts skips the exercise test at the nodes above its
// exercise cut: the largest detail::exercise_cut_x of its lanes.
template <int W, int TS, bool Unroll = false>
void reduce_pack(const core::OptionSpec* const* opt, const int* depth, double* call) {
  using V = simd::Vec<double, W>;
  alignas(64) double pu_a[W], pd_a[W], ratio_a[W], invd_a[W], sign_a[W], nsk_a[W];
  alignas(64) double base_a[W], level_a[W];
  bool any_american = false;
  double cut = -std::numeric_limits<double>::infinity();
  for (int l = 0; l < W; ++l) {
    const core::OptionSpec& o = *opt[l];
    const CrrParams p = crr(o, depth[l]);
    const bool american = o.style == core::ExerciseStyle::kAmerican;
    cut = std::max(cut, cut_x(o, depth[l], p.up));
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
          american_tile_pass<W, kAmericanTileSize>(call, i, pu, pd, invd, ratio, sign, nsk, cut,
                                                   level);
        }
      } else {
        for (; i - TS >= stop; i -= TS) tile_pass<W, TS, Unroll>(call, i, pu, pd);
      }
    }
    for (; i > stop; --i) {
      if (any_american) {
        level *= invd;  // now S * d^(i-1)
        american_level<W>(call, i, pu, pd, level, ratio, sign, nsk, cut);
      } else {
        european_nodes<W>(call, 0, i, pu, pd);
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

// Mixed depths in pack order: up to W consecutive options of one class
// form a pack, its lanes put in ascending depth (already so in sorted
// options and in an engine pack plan) and a partial pack repeating its
// deepest lane (no scalar tail: every lane runs the same arithmetic).
// Every pack runs in one leased lattice sized for the deepest option.
template <int W, int TS>
void price_packed_w(std::span<const core::OptionSpec> opts, int steps_per_year,
                    std::span<double> out, core::ScratchPool* scratch) {
  const std::size_t n = opts.size();
  if (n == 0) return;
  int deepest = 0;
  for (const core::OptionSpec& o : opts) deepest = std::max(deepest, depth_for(o, steps_per_year));
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(deepest + 1) * W);
  for (std::size_t lo = 0; lo < n;) {
    std::uint64_t key[W];  // the pack's lanes: depth_key(depth, option, offset from lo)
    int m = 0;
    for (; m < W && lo + m < n; ++m) {
      const core::OptionSpec& o = opts[lo + m];
      const std::uint64_t k = depth_key(depth_for(o, steps_per_year), o, m);
      if (m > 0 && key_class(k) != key_class(key[0])) break;
      int l = m;
      for (; l > 0 && key[l - 1] > k; --l) key[l] = key[l - 1];
      key[l] = k;
    }
    const core::OptionSpec* lane[W];
    int depth[W];
    for (int l = 0; l < W; ++l) {
      const std::uint64_t k = key[std::min(l, m - 1)];
      lane[l] = &opts[lo + key_index(k)];
      depth[l] = key_steps(k);
    }
    reduce_pack<W, TS>(lane, depth, buf.data());
    for (int l = 0; l < m; ++l) out[lo + key_index(key[l])] = buf.data()[l];
    lo += static_cast<std::size_t>(m);
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
  simd::with_lanes<double>(
      w, [&](auto L) { price_simd<L, kTileSize<L>>(opts, steps, out, scratch); });
}

void price_packed(std::span<const core::OptionSpec> opts, int steps_per_year,
                  std::span<double> out, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(
      w, [&](auto L) { price_packed_w<L, 0>(opts, steps_per_year, out, scratch); });
}

void price_packed_tiled(std::span<const core::OptionSpec> opts, int steps_per_year,
                        std::span<double> out, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(
      w, [&](auto L) { price_packed_w<L, kTileSize<L>>(opts, steps_per_year, out, scratch); });
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
      w, [&](auto L) { price_simd<L, kTileSize<L>, true>(opts, steps, out, scratch); });
}

}  // namespace finbench::kernels::binomial
