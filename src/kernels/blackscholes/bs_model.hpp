// Internal to src/kernels/blackscholes: the one Black–Scholes model every
// SIMD pricing kernel runs (SOA, blocked and fused AOS, in double and
// single precision), the lane I/O between double storage and a tile, and
// the dispatch from a Width and a dividend yield to one instantiation.
// Not installed.

#pragma once

#include <cstddef>
#include <type_traits>

#include <immintrin.h>

#include "finbench/core/option.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/vecmath/vecmath.hpp"
#include "finbench/vecmath/vecmathf.hpp"

namespace finbench::kernels::bs {

// Every Black–Scholes pricing entry point adds its batch here.
inline void count_priced(std::size_t n) {
  static obs::Counter& priced = obs::counter("bs.options_priced");
  priced.add(n);
}

template <class V>
struct BsOut {
  V call, put;
};

// Call and put of one vector of options: cnd via erf (the paper's SVML
// substitution) and the put from call/put parity (Sec. IV-A2). A
// continuous yield q discounts the spot to S·e^(-qT) and the drift to
// r - q; HasDividend = false compiles the paper's dividend-free algebra.
// The batch constants are broadcast once, at construction. The precisions
// differ only in the transcendental family (log/exp/erf against the SP
// polynomials, ~1.5e-7 abs, which buy twice the lanes) and in the call,
// which DP fuses into one fmsub. Keep the order of operations: outputs
// are bitwise-stable across releases, and folding drift ± σ²/2 into
// constants measured slower on the DP kernels.
template <class V, bool HasDividend>
struct BsModel {
  using Real = typename V::value_type;
  static constexpr bool kDouble = std::is_same_v<Real, double>;

  V r, q, sig, sig22, one, half, inv_sqrt2;

  BsModel(Real rate, Real vol, Real dividend)
      : r(rate),
        q(dividend),
        sig(vol),
        sig22(vol * vol / 2),
        one(Real(1)),
        half(Real(0.5)),
        inv_sqrt2(Real(0.70710678118654752440)) {}

  static V log(V x) {
    if constexpr (kDouble) return vecmath::log(x);
    else return vecmath::logf(x);
  }
  static V exp(V x) {
    if constexpr (kDouble) return vecmath::exp(x);
    else return vecmath::expf(x);
  }
  V cnd(V x) const {
    if constexpr (kDouble) return fmadd(vecmath::erf(x * inv_sqrt2), half, half);
    else return fmadd(vecmath::erff(x * inv_sqrt2), half, half);
  }

  BsOut<V> operator()(V S, V K, V T) const {
    const V qlog = log(S / K);
    const V denom = one / (sig * sqrt(T));
    V drift = r;
    V sq = S;
    if constexpr (HasDividend) {
      drift = r - q;
      sq = S * exp(-q * T);
    }
    const V d1 = (qlog + (drift + sig22) * T) * denom;
    const V d2 = (qlog + (drift - sig22) * T) * denom;
    const V xexp = K * exp(-r * T);
    const V nd1 = cnd(d1), nd2 = cnd(d2);
    V c;
    if constexpr (kDouble) c = fmsub(sq, nd1, xexp * nd2);
    else c = sq * nd1 - xexp * nd2;
    return {c, c - sq + xexp};
  }
};

// Calls f.template operator()<V, HasDividend>() with V the T vector `w`
// means in this build, and the dividend-free model whenever the batch's
// yield, narrowed to T, is zero.
template <class T, class F>
void with_model(simd::Width w, double dividend, F&& f) {
  simd::with_lanes<T>(w, [&](auto L) {
    using V = simd::Vec<T, L>;
    if (static_cast<T>(dividend) != T(0)) f.template operator()<V, true>();
    else f.template operator()<V, false>();
  });
}

// One tile's field run between double storage and V: V::width doubles at
// p, except that a 16-float run spans two lane-blocks (lanes 8..15 sit one
// block, 5 x kBsBlock doubles, after lanes 0..7). DP runs load and store
// as they are; SP runs narrow in register (cvtpd_ps) and widen on the
// store, so the SP kernels price the same bytes in memory as the DP ones.
template <class V>
struct DoubleRun;

template <int W>
struct DoubleRun<simd::Vec<double, W>> {
  using V = simd::Vec<double, W>;
  static V load(const double* p) { return V::load(p); }
  static void store(double* p, V x) { x.store(p); }
  static void stream(double* p, V x) { x.stream(p); }
};

template <>
struct DoubleRun<simd::Vec<float, 1>> {
  using V = simd::Vec<float, 1>;
  static V load(const double* p) { return V(static_cast<float>(*p)); }
  static void store(double* p, V x) { *p = static_cast<double>(x.v); }
  static void stream(double* p, V x) { store(p, x); }
};

// The 8-lane runs are whole lane-blocks.
static_assert(core::kBsBlock == 8);

template <>
struct DoubleRun<simd::Vec<float, 8>> {
  using V = simd::Vec<float, 8>;
#if defined(FINBENCH_HAVE_AVX512)
  static V load(const double* p) { return V(_mm512_cvtpd_ps(_mm512_load_pd(p))); }
  static void store(double* p, V x) { _mm512_store_pd(p, _mm512_cvtps_pd(x.v)); }
  static void stream(double* p, V x) { _mm512_stream_pd(p, _mm512_cvtps_pd(x.v)); }
#else
  static V load(const double* p) {
    const __m128 lo = _mm256_cvtpd_ps(_mm256_load_pd(p));
    const __m128 hi = _mm256_cvtpd_ps(_mm256_load_pd(p + 4));
    return V(_mm256_set_m128(hi, lo));
  }
  static void store(double* p, V x) {
    _mm256_store_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(x.v)));
    _mm256_store_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(x.v, 1)));
  }
  static void stream(double* p, V x) {
    _mm256_stream_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(x.v)));
    _mm256_stream_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(x.v, 1)));
  }
#endif
};

#if defined(FINBENCH_HAVE_AVX512)
template <>
struct DoubleRun<simd::Vec<float, 16>> {
  using V = simd::Vec<float, 16>;
  static constexpr std::size_t kHi = 5 * core::kBsBlock;
  static V load(const double* p) {
    const __m256 lo = _mm512_cvtpd_ps(_mm512_load_pd(p));
    const __m256 hi = _mm512_cvtpd_ps(_mm512_load_pd(p + kHi));
    return V(_mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1));
  }
  static void store(double* p, V x) {
    _mm512_store_pd(p, _mm512_cvtps_pd(_mm512_castps512_ps256(x.v)));
    _mm512_store_pd(p + kHi, _mm512_cvtps_pd(_mm512_extractf32x8_ps(x.v, 1)));
  }
  static void stream(double* p, V x) {
    _mm512_stream_pd(p, _mm512_cvtps_pd(_mm512_castps512_ps256(x.v)));
    _mm512_stream_pd(p + kHi, _mm512_cvtps_pd(_mm512_extractf32x8_ps(x.v, 1)));
  }
};
#endif

// Prices the register tile whose field f (0 spot, 1 strike, 2 years,
// 3 call, 4 put) starts at base + f·fs. Stream = true writes the outputs
// non-temporally (an in-memory batch is written once and never read
// back); a stack tile that is read straight back takes plain stores.
template <bool Stream, class V, bool HasDividend>
inline void price_tile(const BsModel<V, HasDividend>& m, double* base, std::size_t fs) {
  using Run = DoubleRun<V>;
  const auto [c, p] = m(Run::load(base), Run::load(base + fs), Run::load(base + 2 * fs));
  if constexpr (Stream) {
    Run::stream(base + 3 * fs, c);
    Run::stream(base + 4 * fs, p);
  } else {
    Run::store(base + 3 * fs, c);
    Run::store(base + 4 * fs, p);
  }
}

}  // namespace finbench::kernels::bs
