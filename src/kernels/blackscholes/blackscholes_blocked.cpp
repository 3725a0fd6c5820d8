// Register-tiled Black–Scholes over the blocked AoSoA layout (paper
// Sec. IV-A3, Fig. 4 "Advanced"). Each lane-block stores its five fields
// as contiguous kBsBlock-lane runs, so a register tile is nothing but
// aligned unit-stride loads — no gathers, unlike SIMD over AOS — and the
// whole working set of a tile (5 x kBsBlock doubles) sits on a handful of
// cache lines. Tiles are processed in pairs (×2 unroll) so two
// independent exp/log/erf dependency chains are in flight per worker,
// hiding the polynomial latency, and outputs leave through streaming
// stores: the batch is written once and never read back, so there is no
// point pulling its lines into cache.
//
// Both drivers here run in either precision: a V of floats runs the same
// tiles with twice the lanes, its field runs narrowing f64->f32 in
// register and widening back on the store (DoubleRun) — the storage stays
// double, so the SP speedup is measured against identical bytes in memory
// and the engine can negotiate/write back exactly as for DP.
//
// Lane-blocks are core::kBsBlock (8) lanes, padded by replicating the
// final option, so full-width tiles are always safe at every width; padded
// lanes are computed redundantly and ignored by every reader.

#include <algorithm>
#include <cstddef>

#include "bs_model.hpp"
#include "finbench/kernels/blackscholes.hpp"

namespace finbench::kernels::bs {

namespace {

constexpr std::size_t kBw = core::kBsBlock;

// Tile j covers lanes [jW, jW + W) of the blocked batch: a sub-run of one
// block (W < 8), one whole block (W = 8) or two adjacent blocks (16
// floats). Tiles run in ×2 pairs, adjacent blocks or the sub-runs inside
// a block; a 16-lane tile already holds two blocks' chains and runs
// alone, and an odd last block finishes 8-wide.
template <class V, bool HasDividend>
void price_blocked_tiles(const core::BsBlockedView& batch) {
  using T = typename V::value_type;
  constexpr std::size_t W = V::width;
  const BsModel<V, HasDividend> model(T(batch.rate), T(batch.vol), T(batch.dividend));
  double* const data = batch.data.data();
  const std::size_t nblocks = batch.num_blocks();
  const std::size_t ntiles = nblocks * kBw / W;
  auto tile = [&](std::size_t j) {
    price_tile</*Stream=*/true>(model, data + j * W / kBw * 5 * kBw + j * W % kBw, kBw);
  };

  if constexpr (W > kBw) {
    for (std::size_t j = 0; j < ntiles; ++j) tile(j);
    if (nblocks % 2 != 0) {
      using H = simd::Vec<T, kBw>;
      const BsModel<H, HasDividend> edge(T(batch.rate), T(batch.vol), T(batch.dividend));
      price_tile</*Stream=*/true>(edge, data + (nblocks - 1) * 5 * kBw, kBw);
    }
  } else {
    std::size_t j = 0;
    for (; j + 2 <= ntiles; j += 2) {
      tile(j);
      tile(j + 1);
    }
    if (j < ntiles) tile(j);
  }
}

// --- Fused AOS -> blocked -> AOS pipeline ----------------------------------
//
// The separate convert / price / write-back passes each cross DRAM; the
// point of the AoSoA layout is that conversion composes with tiling, so
// this path does all three block-locally: transpose W options into a
// stack-resident tile laid out as lane-blocks (L1-hot), price it in
// register, and copy the two output lanes straight back into the caller's
// AOS records. The AOS array is read once and its output fields written
// once — no blocked array ever exists in DRAM.

// N adjacent tiles of W options at x. All N are transposed before any is
// priced, so one tile's transpose overlaps the other's transcendentals.
template <std::size_t N, class V, bool HasDividend>
inline void price_aos_tiles(const BsModel<V, HasDividend>& model, core::BsOptionAos* x) {
  constexpr std::size_t W = V::width;
  constexpr std::size_t fs = std::min(W, kBw);  // lanes per field run
  alignas(64) double tile[N][5 * W];
  for (std::size_t t = 0; t < N; ++t) {
    for (std::size_t b = 0; b < W / fs; ++b) {
      for (std::size_t ln = 0; ln < fs; ++ln) {
        const core::BsOptionAos& xi = x[t * W + b * fs + ln];
        double* const run = tile[t] + b * 5 * fs + ln;
        run[0] = xi.spot;
        run[fs] = xi.strike;
        run[2 * fs] = xi.years;
      }
    }
  }
  for (std::size_t t = 0; t < N; ++t) price_tile</*Stream=*/false>(model, tile[t], fs);
  for (std::size_t t = 0; t < N; ++t) {
    for (std::size_t b = 0; b < W / fs; ++b) {
      for (std::size_t ln = 0; ln < fs; ++ln) {
        core::BsOptionAos& xi = x[t * W + b * fs + ln];
        const double* const run = tile[t] + b * 5 * fs + ln;
        xi.call = run[3 * fs];
        xi.put = run[4 * fs];
      }
    }
  }
}

// Tiles in ×2 pairs, an odd full tile alone, and the last n mod W options
// through one tile over a copy padded with the last option, as the SOA
// kernel's tail: an option's price does not depend on where it sits in
// the batch.
template <class V, bool HasDividend>
void price_fused_tiles(const core::BsAosView& batch) {
  using T = typename V::value_type;
  constexpr std::size_t W = V::width;
  const BsModel<V, HasDividend> model(T(batch.rate), T(batch.vol), T(batch.dividend));
  core::BsOptionAos* const o = batch.options.data();
  const std::size_t n = batch.size();

  std::size_t i = 0;
  for (; i + 2 * W <= n; i += 2 * W) price_aos_tiles<2>(model, o + i);
  if (i + W <= n) {
    price_aos_tiles<1>(model, o + i);
    i += W;
  }
  if (i < n) {
    core::BsOptionAos pad[W];
    for (std::size_t ln = 0; ln < W; ++ln) pad[ln] = o[std::min(i + ln, n - 1)];
    price_aos_tiles<1>(model, pad);
    std::copy(pad, pad + (n - i), o + i);
  }
}

}  // namespace

void price_blocked(core::BsBlockedView batch, Width w) {
  count_priced(batch.size());
  with_model<double>(w, batch.dividend,
                     [&]<class V, bool Q>() { price_blocked_tiles<V, Q>(batch); });
}

void price_blocked_sp(core::BsBlockedView batch, Width w) {
  count_priced(batch.size());
  with_model<float>(w, batch.dividend,
                    [&]<class V, bool Q>() { price_blocked_tiles<V, Q>(batch); });
}

void price_blocked_from_aos(core::BsAosView batch, Width w) {
  count_priced(batch.size());
  with_model<double>(w, batch.dividend,
                     [&]<class V, bool Q>() { price_fused_tiles<V, Q>(batch); });
}

void price_blocked_from_aos_f32(core::BsAosView batch, Width w) {
  count_priced(batch.size());
  with_model<float>(w, batch.dividend,
                    [&]<class V, bool Q>() { price_fused_tiles<V, Q>(batch); });
}

}  // namespace finbench::kernels::bs
