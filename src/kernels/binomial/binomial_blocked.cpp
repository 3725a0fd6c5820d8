// Blocked-layout binomial family (paper Fig. 5 meets the Fig. 4 "Advanced"
// layout): European CRR pricing straight off Layout::kBsBlocked AoSoA
// tiles. Each lane-block stores its fields as contiguous kBsBlock-lane runs,
// so lane setup is aligned unit-stride loads — no OptionSpec gather — and
// both the call and the put lattice reduce together, keeping two
// independent fmadd chains in flight per W-wide group (the same ILP idiom
// as the blocked Black–Scholes ×2 unroll). Padded lanes of the last block
// replicate a real option and are computed redundantly, never read.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "finbench/core/scratch_pool.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/simd/vec.hpp"

namespace finbench::kernels::binomial {

namespace {

template <int W>
void price_blocked_width(const core::BsBlockedView& batch, int steps,
                         core::ScratchPool* scratch) {
  static_assert(core::kBsBlock % W == 0, "a W-wide group covers whole lanes of a block");
  using V = simd::Vec<double, W>;
  const auto nblocks = static_cast<std::ptrdiff_t>(batch.num_blocks());
  const std::size_t lat = static_cast<std::size_t>(steps + 1) * W;

  core::ScratchBuf buf(scratch, 2 * lat);
  double* const call = buf.data();
  double* const put = buf.data() + lat;
  for (std::ptrdiff_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t b = static_cast<std::size_t>(blk);
    const double* spot = batch.field(b, 0);
    const double* strike = batch.field(b, 1);
    const double* years = batch.field(b, 2);
    double* out_call = batch.field(b, 3);
    double* out_put = batch.field(b, 4);
    for (std::size_t sub = 0; sub < core::kBsBlock; sub += W) {
      alignas(64) double pu_a[W], pd_a[W];
      for (int l = 0; l < W; ++l) {
        core::OptionSpec o{};
        o.spot = spot[sub + static_cast<std::size_t>(l)];
        o.strike = strike[sub + static_cast<std::size_t>(l)];
        o.years = years[sub + static_cast<std::size_t>(l)];
        o.rate = batch.rate;
        o.vol = batch.vol;
        o.dividend = batch.dividend;
        const detail::CrrDerived p = detail::crr_derived(o, steps);
        pu_a[l] = p.pu_by_df;
        pd_a[l] = p.pd_by_df;
        double s = o.spot * std::pow(p.down, steps);
        const double ratio = p.up / p.down;
        for (int j = 0; j <= steps; ++j) {
          call[static_cast<std::size_t>(j) * W + static_cast<std::size_t>(l)] =
              std::max(s - o.strike, 0.0);
          put[static_cast<std::size_t>(j) * W + static_cast<std::size_t>(l)] =
              std::max(o.strike - s, 0.0);
          s *= ratio;
        }
      }
      const V pu = V::load(pu_a);
      const V pd = V::load(pd_a);
      // Call and put reduce together: two independent fmadd chains per
      // iteration hide the FMA latency the single-lattice loop exposes.
      for (int i = steps; i > 0; --i) {
        for (int j = 0; j <= i - 1; ++j) {
          const std::size_t at = static_cast<std::size_t>(j) * W;
          const V cu = V::load(call + at + W);
          const V cd = V::load(call + at);
          const V qu = V::load(put + at + W);
          const V qd = V::load(put + at);
          fmadd(pu, cu, pd * cd).store(call + at);
          fmadd(pu, qu, pd * qd).store(put + at);
        }
      }
      V::load(call).storeu(out_call + sub);
      V::load(put).storeu(out_put + sub);
    }
  }
}

}  // namespace

void price_blocked(const core::BsBlockedView& view, int steps, Width w,
                   core::ScratchPool* scratch) {
  static obs::Counter& priced = obs::counter("binomial.options_priced");
  priced.add(view.size());
  simd::with_lanes<double>(w, [&](auto L) { price_blocked_width<L>(view, steps, scratch); });
}

}  // namespace finbench::kernels::binomial
