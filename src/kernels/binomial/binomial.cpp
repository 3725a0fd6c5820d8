#include "finbench/kernels/binomial.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

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

// Lane setup of the register-tiled path: W options side by side, Call[j]
// is a W-wide vector; `base` indexes the block of W consecutive options.
// Lanes past the end of `opts` repeat its last option.
template <int W>
struct LaneBatch {
  using V = simd::Vec<double, W>;
  V pu, pd;  // discounted probabilities per lane
  void init_leaves(std::span<const core::OptionSpec> opts, std::size_t base, int steps,
                   double* call /* (steps+1) x W */) {
    alignas(64) double pu_a[W], pd_a[W];
    for (int l = 0; l < W; ++l) {
      const core::OptionSpec& o = opts[std::min(base + l, opts.size() - 1)];
      const CrrParams p = crr(o, steps);
      pu_a[l] = p.pu_by_df;
      pd_a[l] = p.pd_by_df;
      double s = o.spot * std::pow(p.down, steps);
      const double ratio = p.up / p.down;
      for (int j = 0; j <= steps; ++j) {
        call[static_cast<std::size_t>(j) * W + l] =
            o.type == core::OptionType::kCall ? std::max(s - o.strike, 0.0)
                                              : std::max(o.strike - s, 0.0);
        s *= ratio;
      }
    }
    pu = V::load(pu_a);
    pd = V::load(pd_a);
  }
};

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

template <int W>
void reduce_european(double* call, int steps, simd::Vec<double, W> pu, simd::Vec<double, W> pd) {
  for (int i = steps; i > 0; --i) european_level<W>(call, i, pu, pd);
}

// The American level needs the node spot prices: node (i-1, j) is at
// S·u^j·d^(i-1-j), rebuilt incrementally from the lane's `level` base
// S·d^(i-1) and its u/d ratio.
template <int W>
void american_level(double* call, int i, simd::Vec<double, W> pu, simd::Vec<double, W> pd,
                    simd::Vec<double, W> level, simd::Vec<double, W> ratio,
                    simd::Vec<double, W> strike, simd::Vec<double, W> sign,
                    simd::Vec<double, W> am) {
  using V = simd::Vec<double, W>;
  V node_s = level;
  for (int j = 0; j <= i - 1; ++j) {
    const V up = V::load(call + static_cast<std::size_t>(j + 1) * W);
    const V dn = V::load(call + static_cast<std::size_t>(j) * W);
    const V cont = fmadd(pu, up, pd * dn);
    // European lanes get exercise value 0; continuation values are always
    // >= 0 for vanilla payoffs, so max(cont, 0) leaves them untouched.
    const V exercise = am * max(sign * (node_s - strike), V(0.0));
    max(cont, exercise).store(call + static_cast<std::size_t>(j) * W);
    node_s *= ratio;
  }
}

// One pack: W options side by side, one per lane, Call[j] a W-wide vector.
// Lane l prices *opt[l] over a depth[l]-deep lattice; depths ascend across
// the lanes and the deepest, S = depth[W-1], is where the induction
// starts. When it reaches level depth[l], lane l gets its payoff leaves
// and its S·d^s node base written in; whatever the lane computed above
// that level is overwritten, so no mask is needed and a lane's arithmetic
// depends on its own option alone. An equal-depth pack is the paper's
// one-option-per-lane batch. `call` holds (S+1) x W doubles; the prices
// come back in call[0..W).
template <int W>
void reduce_pack(const core::OptionSpec* const* opt, const int* depth, double* call) {
  using V = simd::Vec<double, W>;
  alignas(64) double pu_a[W], pd_a[W], ratio_a[W], invd_a[W], strike_a[W], sign_a[W], am_a[W];
  alignas(64) double base_a[W], level_a[W];
  bool any_american = false;
  for (int l = 0; l < W; ++l) {
    const core::OptionSpec& o = *opt[l];
    const CrrParams p = crr(o, depth[l]);
    pu_a[l] = p.pu_by_df;
    pd_a[l] = p.pd_by_df;
    ratio_a[l] = p.up / p.down;
    invd_a[l] = 1.0 / p.down;
    strike_a[l] = o.strike;
    sign_a[l] = o.type == core::OptionType::kCall ? 1.0 : -1.0;
    am_a[l] = o.style == core::ExerciseStyle::kAmerican ? 1.0 : 0.0;
    any_american |= o.style == core::ExerciseStyle::kAmerican;
    base_a[l] = o.spot * std::pow(p.down, depth[l]);
    level_a[l] = 0.0;
  }
  const V pu = V::load(pu_a), pd = V::load(pd_a), ratio = V::load(ratio_a);
  const V invd = V::load(invd_a), strike = V::load(strike_a), sign = V::load(sign_a);
  const V am = V::load(am_a);

  const int top = depth[W - 1];
  // Lanes that start below the top compute from zeroed cells until then:
  // finite and never denormal, whatever the buffer held before.
  if (depth[0] < top) std::fill(call, call + static_cast<std::size_t>(top + 1) * W, 0.0);
  V level(0.0);  // S·d^i per lane at the current level i
  int next = W - 1;  // deepest lane not yet started
  for (int i = top;; --i) {
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
    if (any_american) {
      level *= invd;  // now S * d^(i-1)
      american_level<W>(call, i, pu, pd, level, ratio, strike, sign, am);
    } else {
      european_level<W>(call, i, pu, pd);
    }
  }
}

// A ragged last pack repeats its final option rather than running a
// scalar tail, so every option runs the same arithmetic wherever it sits
// in the batch (a coalesced member prices as it does alone).
template <int W>
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
    reduce_pack<W>(lane, depth, call);
    std::copy_n(call, std::min<std::size_t>(W, n - base), out.data() + base);
  }
}

// Mixed depths: pack p holds order[lo, hi), counted from the deep end so
// the one partial pack is the shallowest, and a partial pack repeats its
// deepest lane (no scalar tail: every lane runs the same arithmetic).
// Packs run deepest first, all in one leased lattice sized for the
// deepest.
template <int W>
void price_packed_w(std::span<const core::OptionSpec> opts, std::span<const std::uint64_t> order,
                    std::span<double> out, core::ScratchPool* scratch) {
  const std::size_t n = order.size();
  if (n == 0) return;
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(key_steps(order[n - 1]) + 1) * W);
  for (std::size_t hi = n; hi > 0;) {
    const std::size_t lo = hi > static_cast<std::size_t>(W) ? hi - W : 0;
    const core::OptionSpec* lane[W];
    int depth[W];
    for (int l = 0; l < W; ++l) {
      const std::uint64_t k = order[std::min(lo + l, hi - 1)];
      lane[l] = &opts[key_index(k)];
      depth[l] = key_steps(k);
    }
    reduce_pack<W>(lane, depth, buf.data());
    for (std::size_t i = lo; i < hi; ++i) out[key_index(order[i])] = buf.data()[i - lo];
    hi = lo;
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

// A ragged last block repeats its final option, as in price_simd.
template <int W, int TS, bool Unroll>
void price_tiled(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                 core::ScratchPool* scratch) {
  const std::size_t n = opts.size();
  core::ScratchBuf buf(scratch, static_cast<std::size_t>(steps + 1) * W);
  double* const call = buf.data();
  for (std::size_t base = 0; base < n; base += W) {
    LaneBatch<W> lanes;
    lanes.init_leaves(opts, base, steps, call);

    int m = steps;
    for (; m >= TS; m -= TS) tile_pass<W, TS, Unroll>(call, m, lanes.pu, lanes.pd);
    // Remainder (< TS steps): plain in-place reduction.
    reduce_european<W>(call, m, lanes.pu, lanes.pd);

    std::copy_n(call, std::min<std::size_t>(W, n - base), out.data() + base);
  }
}

constexpr int kTileSize = 16;  // fits the zmm/ymm register file with room to spare

}  // namespace

void price_intermediate(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                        Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(w, [&](auto L) { price_simd<L>(opts, steps, out, scratch); });
}

void price_advanced(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                    Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(
      w, [&](auto L) { price_tiled<L, kTileSize, false>(opts, steps, out, scratch); });
}

void price_packed(std::span<const core::OptionSpec> opts, std::span<const std::uint64_t> order,
                  std::span<double> out, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(w, [&](auto L) { price_packed_w<L>(opts, order, out, scratch); });
}

namespace {

template <int TS>
void price_tiled_dispatch(std::span<const core::OptionSpec> opts, int steps,
                          std::span<double> out, Width w, core::ScratchPool* scratch) {
  simd::with_lanes<double>(
      w, [&](auto L) { price_tiled<L, TS, false>(opts, steps, out, scratch); });
}

}  // namespace

void price_advanced_tile(std::span<const core::OptionSpec> opts, int steps,
                         std::span<double> out, int tile_size, Width w,
                         core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  switch (tile_size) {
    case 4: price_tiled_dispatch<4>(opts, steps, out, w, scratch); return;
    case 8: price_tiled_dispatch<8>(opts, steps, out, w, scratch); return;
    case 16: price_tiled_dispatch<16>(opts, steps, out, w, scratch); return;
    case 32: price_tiled_dispatch<32>(opts, steps, out, w, scratch); return;
    case 64: price_tiled_dispatch<64>(opts, steps, out, w, scratch); return;
    default: throw std::invalid_argument("binomial: tile_size must be 4/8/16/32/64");
  }
}

void price_advanced_unrolled(std::span<const core::OptionSpec> opts, int steps,
                             std::span<double> out, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  simd::with_lanes<double>(
      w, [&](auto L) { price_tiled<L, kTileSize, true>(opts, steps, out, scratch); });
}

}  // namespace finbench::kernels::binomial
