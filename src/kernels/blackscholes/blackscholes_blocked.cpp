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
// The single-precision variants run the same tiles with twice the lanes:
// inputs convert f64->f32 in register (cvtpd_ps), the transcendentals run
// in SP, and results widen back on the streaming store — the storage
// stays double, so the SP speedup is measured against identical bytes in
// memory and the engine can negotiate/write back exactly as for DP.
//
// Lane-blocks are core::kBsBlock (8) lanes, padded by replicating the
// final option, so full-width tiles are always safe at every width; padded
// lanes are computed redundantly and ignored by every reader.

#include <cmath>
#include <cstddef>

#include <immintrin.h>

#include "finbench/core/analytic.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/vecmath/vecmath.hpp"
#include "finbench/vecmath/vecmathf.hpp"
#include "sp_tile.hpp"

namespace finbench::kernels::bs {

namespace {

// --- Double precision ------------------------------------------------------

// The per-tile constants, broadcast once per kernel invocation.
template <int W>
struct DpConsts {
  using V = simd::Vec<double, W>;
  V r, q, sig, sig22, half, one, inv_sqrt2;
  DpConsts(double rate, double vol, double dividend)
      : r(rate),
        q(dividend),
        sig(vol),
        sig22(vol * vol / 2),
        half(0.5),
        one(1.0),
        inv_sqrt2(0.70710678118654752440) {}
};

// One register tile over five field runs at base, base + fs, ..., base +
// 4 fs (fs = the lane-block width). Stream=true writes outputs with
// non-temporal stores (the in-memory blocked batch is written once and
// never read back); the fused AOS path sets Stream=false because its tile
// buffer lives on the stack and is read back immediately.
template <int W, bool HasDividend, bool Stream>
inline void dp_tile(const DpConsts<W>& k, double* base, std::size_t fs) {
  using V = simd::Vec<double, W>;
  const V S = V::load(base);
  const V K = V::load(base + fs);
  const V T = V::load(base + 2 * fs);
  const V qlog = vecmath::log(S / K);
  const V denom = k.one / (k.sig * sqrt(T));
  V drift = k.r;
  V sq = S;
  if constexpr (HasDividend) {
    drift = k.r - k.q;
    sq = S * vecmath::exp(-k.q * T);
  }
  const V d1 = (qlog + (drift + k.sig22) * T) * denom;
  const V d2 = (qlog + (drift - k.sig22) * T) * denom;
  const V xexp = K * vecmath::exp(-k.r * T);
  const V nd1 = fmadd(vecmath::erf(d1 * k.inv_sqrt2), k.half, k.half);
  const V nd2 = fmadd(vecmath::erf(d2 * k.inv_sqrt2), k.half, k.half);
  const V c = fmsub(sq, nd1, xexp * nd2);
  const V put = c - sq + xexp;  // put via call/put parity
  if constexpr (Stream) {
    c.stream(base + 3 * fs);
    put.stream(base + 4 * fs);
  } else {
    c.store(base + 3 * fs);
    put.store(base + 4 * fs);
  }
}

template <int W, bool HasDividend>
void price_blocked_width(const core::BsBlockedView& batch) {
  static_assert(core::kBsBlock % W == 0, "a register tile covers whole lanes of a block");
  const DpConsts<W> k(batch.rate, batch.vol, batch.dividend);

  const std::ptrdiff_t nblocks = static_cast<std::ptrdiff_t>(batch.num_blocks());
  constexpr std::size_t bw = core::kBsBlock;
  double* const data = batch.data.data();

  // When a tile covers a whole block, fs is the compile-time W and every
  // address is base + constant — the same addressing the SOA kernel enjoys.
  auto tile = [&](double* base, std::size_t fs) {
    dp_tile<W, HasDividend, /*Stream=*/true>(k, base, fs);
  };

  // x2 unroll: when a tile covers a whole block, pair adjacent blocks;
  // otherwise pair the sub-runs inside each block. Either way two
  // independent transcendental chains are in flight and the indexing is
  // pure pointer increments (no per-tile division).
  if constexpr (static_cast<std::size_t>(W) == bw) {
    const std::size_t stride = 5 * static_cast<std::size_t>(W);
    const std::ptrdiff_t npairs = nblocks / 2;
    for (std::ptrdiff_t p = 0; p < npairs; ++p) {
      double* base = data + static_cast<std::size_t>(2 * p) * stride;
      tile(base, W);
      tile(base + stride, W);
    }
    if (nblocks % 2 != 0) {
      tile(data + static_cast<std::size_t>(nblocks - 1) * stride, W);
    }
    return;
  }
  const std::size_t stride = 5 * bw;
  for (std::ptrdiff_t b = 0; b < nblocks; ++b) {
    double* const base = data + static_cast<std::size_t>(b) * stride;
    std::size_t off = 0;
    for (; off + 2 * W <= bw; off += 2 * W) {
      tile(base + off, bw);
      tile(base + off + W, bw);
    }
    for (; off < bw; off += W) tile(base + off, bw);
  }
}

template <int W>
void price_blocked_dispatch(const core::BsBlockedView& batch) {
  if (batch.dividend != 0.0) price_blocked_width<W, true>(batch);
  else price_blocked_width<W, false>(batch);
}

// --- Fused AOS -> blocked -> AOS pipeline ----------------------------------
//
// The separate convert / price / write-back passes each cross DRAM; the
// point of the AoSoA layout is that conversion composes with tiling, so
// this path does all three block-locally: transpose W options into a
// stack-resident tile (L1-hot), price it in register, and copy the two
// output lanes straight back into the caller's AOS records. The AOS array
// is read once and its output fields written once — no blocked array ever
// exists in DRAM.

template <int W, bool HasDividend>
void price_from_aos_width(const core::BsAosView& batch) {
  const DpConsts<W> k(batch.rate, batch.vol, batch.dividend);
  core::BsOptionAos* const o = batch.options.data();
  const std::size_t n = batch.size();
  const std::ptrdiff_t nfull = static_cast<std::ptrdiff_t>(n / W);

  // Two blocks per iteration (same x2 unroll as the in-memory kernel):
  // the second tile's transpose overlaps the first tile's transcendentals.
  const std::ptrdiff_t npairs = nfull / 2;
  for (std::ptrdiff_t p = 0; p < npairs; ++p) {
    alignas(64) double buf[2][5 * W];
    core::BsOptionAos* const x = o + static_cast<std::size_t>(2 * p) * W;
    for (int half = 0; half < 2; ++half) {
      core::BsOptionAos* const xi = x + half * W;
      for (int ln = 0; ln < W; ++ln) {
        buf[half][ln] = xi[ln].spot;
        buf[half][W + ln] = xi[ln].strike;
        buf[half][2 * W + ln] = xi[ln].years;
      }
    }
    dp_tile<W, HasDividend, /*Stream=*/false>(k, buf[0], W);
    dp_tile<W, HasDividend, /*Stream=*/false>(k, buf[1], W);
    for (int half = 0; half < 2; ++half) {
      core::BsOptionAos* const xi = x + half * W;
      for (int ln = 0; ln < W; ++ln) {
        xi[ln].call = buf[half][3 * W + ln];
        xi[ln].put = buf[half][4 * W + ln];
      }
    }
  }
  // Odd full block, then the sub-W tail via the scalar closed form.
  if (nfull % 2 != 0) {
    alignas(64) double buf[5 * W];
    core::BsOptionAos* const x = o + static_cast<std::size_t>(nfull - 1) * W;
    for (int ln = 0; ln < W; ++ln) {
      buf[ln] = x[ln].spot;
      buf[W + ln] = x[ln].strike;
      buf[2 * W + ln] = x[ln].years;
    }
    dp_tile<W, HasDividend, /*Stream=*/false>(k, buf, W);
    for (int ln = 0; ln < W; ++ln) {
      x[ln].call = buf[3 * W + ln];
      x[ln].put = buf[4 * W + ln];
    }
  }
  for (std::size_t i = static_cast<std::size_t>(nfull) * W; i < n; ++i) {
    const core::BsPrice pr =
        core::black_scholes(o[i].spot, o[i].strike, o[i].years, batch.rate, batch.vol,
                            batch.dividend);
    o[i].call = pr.call;
    o[i].put = pr.put;
  }
}

template <int W>
void price_from_aos_dispatch(const core::BsAosView& batch) {
  if (batch.dividend != 0.0) price_from_aos_width<W, true>(batch);
  else price_from_aos_width<W, false>(batch);
}

// --- Single precision over the same blocked doubles ------------------------

// One 8-lane field run: 8 doubles in, Vec<float, 8> out.
inline simd::Vec<float, 8> load_f32_8(const double* p) {
#if defined(FINBENCH_HAVE_AVX512)
  return simd::Vec<float, 8>(_mm512_cvtpd_ps(_mm512_load_pd(p)));
#else
  const __m128 lo = _mm256_cvtpd_ps(_mm256_load_pd(p));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_load_pd(p + 4));
  return simd::Vec<float, 8>(_mm256_set_m128(hi, lo));
#endif
}

inline void stream_f64_8(double* p, simd::Vec<float, 8> x) {
#if defined(FINBENCH_HAVE_AVX512)
  _mm512_stream_pd(p, _mm512_cvtps_pd(x.v));
#else
  _mm256_stream_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(x.v)));
  _mm256_stream_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(x.v, 1)));
#endif
}

// Plain-store twin of stream_f64_8 for the fused AOS path, whose tile
// buffer lives on the stack and is read straight back (a non-temporal
// store there would only evict its own line).
inline void store_f64_8(double* p, simd::Vec<float, 8> x) {
#if defined(FINBENCH_HAVE_AVX512)
  _mm512_store_pd(p, _mm512_cvtps_pd(x.v));
#else
  _mm256_store_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(x.v)));
  _mm256_store_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(x.v, 1)));
#endif
}

#if defined(FINBENCH_HAVE_AVX512)
// Two 8-lane field runs fused into one 16-float vector (and back).
inline simd::Vec<float, 16> load_f32_16(const double* a, const double* b) {
  const __m256 lo = _mm512_cvtpd_ps(_mm512_load_pd(a));
  const __m256 hi = _mm512_cvtpd_ps(_mm512_load_pd(b));
  return simd::Vec<float, 16>(_mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1));
}

inline void stream_f64_16(double* a, double* b, simd::Vec<float, 16> x) {
  _mm512_stream_pd(a, _mm512_cvtps_pd(_mm512_castps512_ps256(x.v)));
  _mm512_stream_pd(b, _mm512_cvtps_pd(_mm512_extractf32x8_ps(x.v, 1)));
}

inline void store_f64_16(double* a, double* b, simd::Vec<float, 16> x) {
  _mm512_store_pd(a, _mm512_cvtps_pd(_mm512_castps512_ps256(x.v)));
  _mm512_store_pd(b, _mm512_cvtps_pd(_mm512_extractf32x8_ps(x.v, 1)));
}
#endif

// The SP blocked kernel at L float lanes per register tile.
template <int L>
void price_blocked_sp_lanes(const core::BsBlockedView& batch);

// Scalar SP per lane (still the SP model, so tolerances match the vector
// paths).
template <>
void price_blocked_sp_lanes<1>(const core::BsBlockedView& batch) {
  using V1 = simd::Vec<float, 1>;
  const float rate = static_cast<float>(batch.rate);
  const float vol = static_cast<float>(batch.vol);
  const float div = static_cast<float>(batch.dividend);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t blk = i / core::kBsBlock;
    const std::size_t ln = i % core::kBsBlock;
    const V1 s(static_cast<float>(batch.field(blk, 0)[ln]));
    const V1 k(static_cast<float>(batch.field(blk, 1)[ln]));
    const V1 t(static_cast<float>(batch.field(blk, 2)[ln]));
    const SpOut<V1> o = sp_tile(s, k, t, rate, vol, div);
    batch.field(blk, 3)[ln] = static_cast<double>(o.call.v);
    batch.field(blk, 4)[ln] = static_cast<double>(o.put.v);
  }
}

// The 8-lane converters tile whole 8-double field runs: one block each.
static_assert(core::kBsBlock == 8);

// 8 SP lanes per tile: one block per register tile.
template <>
void price_blocked_sp_lanes<8>(const core::BsBlockedView& batch) {
  using VF = simd::Vec<float, 8>;
  const float rate = static_cast<float>(batch.rate);
  const float vol = static_cast<float>(batch.vol);
  const float div = static_cast<float>(batch.dividend);

  const std::ptrdiff_t nblocks = static_cast<std::ptrdiff_t>(batch.num_blocks());

  auto tile = [&](std::size_t blk) {
    const VF S = load_f32_8(batch.field(blk, 0));
    const VF K = load_f32_8(batch.field(blk, 1));
    const VF T = load_f32_8(batch.field(blk, 2));
    const SpOut<VF> o = sp_tile(S, K, T, rate, vol, div);
    stream_f64_8(batch.field(blk, 3), o.call);
    stream_f64_8(batch.field(blk, 4), o.put);
  };

  // Same pairing scheme as the DP tiles: adjacent blocks, increment-only
  // indexing.
  const std::ptrdiff_t npairs = nblocks / 2;
  for (std::ptrdiff_t p = 0; p < npairs; ++p) {
    tile(static_cast<std::size_t>(2 * p));
    tile(static_cast<std::size_t>(2 * p + 1));
  }
  if (nblocks % 2 != 0) tile(static_cast<std::size_t>(nblocks - 1));
}

#if defined(FINBENCH_HAVE_AVX512)
// 16 SP lanes per tile: two 8-lane sub-runs fused per register tile.
template <>
void price_blocked_sp_lanes<16>(const core::BsBlockedView& batch) {
  using VF = simd::Vec<float, 16>;
  const float rate = static_cast<float>(batch.rate);
  const float vol = static_cast<float>(batch.vol);
  const float div = static_cast<float>(batch.dividend);

  const std::ptrdiff_t nblocks = static_cast<std::ptrdiff_t>(batch.num_blocks());

  // A 16-float tile fuses the 8-double field runs of two adjacent blocks
  // (lo/hi halves).
  auto tile16 = [&](std::size_t lo, std::size_t hi) {
    const VF S = load_f32_16(batch.field(lo, 0), batch.field(hi, 0));
    const VF K = load_f32_16(batch.field(lo, 1), batch.field(hi, 1));
    const VF T = load_f32_16(batch.field(lo, 2), batch.field(hi, 2));
    const SpOut<VF> o = sp_tile(S, K, T, rate, vol, div);
    stream_f64_16(batch.field(lo, 3), batch.field(hi, 3), o.call);
    stream_f64_16(batch.field(lo, 4), batch.field(hi, 4), o.put);
  };
  auto tile8 = [&](std::size_t blk) {
    using V8 = simd::Vec<float, 8>;
    const V8 S = load_f32_8(batch.field(blk, 0));
    const V8 K = load_f32_8(batch.field(blk, 1));
    const V8 T = load_f32_8(batch.field(blk, 2));
    const SpOut<V8> o = sp_tile(S, K, T, rate, vol, div);
    stream_f64_8(batch.field(blk, 3), o.call);
    stream_f64_8(batch.field(blk, 4), o.put);
  };

  // An odd trailing block finishes 8-wide.
  const std::ptrdiff_t npairs = nblocks / 2;
  for (std::ptrdiff_t p = 0; p < npairs; ++p) {
    tile16(static_cast<std::size_t>(2 * p), static_cast<std::size_t>(2 * p + 1));
  }
  if (nblocks % 2 != 0) tile8(static_cast<std::size_t>(nblocks - 1));
}
#endif

// --- Fused AOS -> f32 register tile pipeline --------------------------------
//
// The SP twin of price_from_aos_width: transpose W options' inputs into
// aligned stack runs of doubles (L1-hot), narrow f64->f32 in register with
// the same cvtpd_ps converters the in-memory SP kernel uses, price through
// the shared sp_tile model, and widen the two outputs back into the
// caller's AOS records. Same "incl. conversion" accounting as the DP fused
// path — the AOS array is read once and written once, no blocked array
// ever exists in DRAM — but with twice the lanes per tile, which is what
// extends Fig. 4's fused-pipeline win to the 16-lane SP rows.

// Width-specific converter glue: one tile's field run in / out.
template <int W>
struct SpAosIo;

template <>
struct SpAosIo<8> {
  static simd::Vec<float, 8> in(const double* p) { return load_f32_8(p); }
  static void out(double* p, simd::Vec<float, 8> x) { store_f64_8(p, x); }
};

#if defined(FINBENCH_HAVE_AVX512)
template <>
struct SpAosIo<16> {
  static simd::Vec<float, 16> in(const double* p) { return load_f32_16(p, p + 8); }
  static void out(double* p, simd::Vec<float, 16> x) { store_f64_16(p, p + 8, x); }
};
#endif

void price_from_aos_sp_scalar(core::BsOptionAos* o, std::size_t begin, std::size_t end,
                              float rate, float vol, float div) {
  using V1 = simd::Vec<float, 1>;
  for (std::size_t i = begin; i < end; ++i) {
    const SpOut<V1> r = sp_tile(V1(static_cast<float>(o[i].spot)),
                                V1(static_cast<float>(o[i].strike)),
                                V1(static_cast<float>(o[i].years)), rate, vol, div);
    o[i].call = static_cast<double>(r.call.v);
    o[i].put = static_cast<double>(r.put.v);
  }
}

template <int W>
void price_from_aos_sp_width(const core::BsAosView& batch) {
  using VF = simd::Vec<float, W>;
  const float rate = static_cast<float>(batch.rate);
  const float vol = static_cast<float>(batch.vol);
  const float div = static_cast<float>(batch.dividend);
  core::BsOptionAos* const o = batch.options.data();
  const std::size_t n = batch.size();
  const std::ptrdiff_t nfull = static_cast<std::ptrdiff_t>(n / W);

  auto tile = [&](core::BsOptionAos* x) {
    alignas(64) double buf[5][W];
    for (int ln = 0; ln < W; ++ln) {
      buf[0][ln] = x[ln].spot;
      buf[1][ln] = x[ln].strike;
      buf[2][ln] = x[ln].years;
    }
    const SpOut<VF> r = sp_tile(SpAosIo<W>::in(buf[0]), SpAosIo<W>::in(buf[1]),
                                SpAosIo<W>::in(buf[2]), rate, vol, div);
    SpAosIo<W>::out(buf[3], r.call);
    SpAosIo<W>::out(buf[4], r.put);
    for (int ln = 0; ln < W; ++ln) {
      x[ln].call = buf[3][ln];
      x[ln].put = buf[4][ln];
    }
  };

  // x2 unroll, as in the DP fused path: the second tile's transpose
  // overlaps the first tile's transcendentals.
  const std::ptrdiff_t npairs = nfull / 2;
  for (std::ptrdiff_t p = 0; p < npairs; ++p) {
    core::BsOptionAos* const x = o + static_cast<std::size_t>(2 * p) * W;
    tile(x);
    tile(x + W);
  }
  if (nfull % 2 != 0) tile(o + static_cast<std::size_t>(nfull - 1) * W);

  // Sub-W tail: scalar lanes of the same SP model, so the whole batch
  // shares one tolerance.
  price_from_aos_sp_scalar(o, static_cast<std::size_t>(nfull) * W, n, rate, vol, div);
}

}  // namespace

void price_blocked(core::BsBlockedView batch, Width w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(batch.size());
  simd::with_lanes<double>(w, [&](auto L) { price_blocked_dispatch<L>(batch); });
}

void price_blocked_from_aos(core::BsAosView batch, Width w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(batch.size());
  simd::with_lanes<double>(w, [&](auto L) { price_from_aos_dispatch<L>(batch); });
}

void price_blocked_from_aos_f32(core::BsAosView batch, Width w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(batch.size());
  simd::with_lanes<float>(w, [&](auto L) {
    if constexpr (L == 1) {
      price_from_aos_sp_scalar(batch.options.data(), 0, batch.size(),
                               static_cast<float>(batch.rate), static_cast<float>(batch.vol),
                               static_cast<float>(batch.dividend));
    } else {
      price_from_aos_sp_width<L>(batch);
    }
  });
}

void price_blocked_sp(core::BsBlockedView batch, Width w) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(batch.size());
  simd::with_lanes<float>(w, [&](auto L) { price_blocked_sp_lanes<L>(batch); });
}

}  // namespace finbench::kernels::bs
