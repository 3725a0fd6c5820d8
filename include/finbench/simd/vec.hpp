// finbench/simd/vec.hpp
//
// Short-vector wrapper classes: the moral equivalent of the F64vec4 /
// F64vec8 classes the paper uses for outer-loop vectorization (Sec. III-B).
//
// Vec<double, W> for W in {1, 4, 8}:
//   W = 1 : scalar fallback (always available; reference semantics)
//   W = 4 : AVX2 + FMA (__m256d) — the SNB-EP-class 256-bit path
//   W = 8 : AVX-512F (__m512d)  — the KNC-class 512-bit path
//
// Every algorithm in the library is written once, generically over Vec,
// so the scalar instantiation doubles as an executable specification for
// the SIMD instantiations (tests compare them lanewise).
//
// The companion VecI64<W> carries the integer bit-twiddling needed by the
// vector math library (exponent extraction / scaling).

#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <immintrin.h>

#include "finbench/simd/width.hpp"

namespace finbench::simd {

template <class T, int W> struct Vec;
template <class T, int W> struct Mask;
template <int W> struct VecI64;

// ---------------------------------------------------------------------------
// Scalar specialization (W = 1)
// ---------------------------------------------------------------------------

template <> struct Mask<double, 1> {
  bool m{};
  Mask() = default;
  explicit Mask(bool b) : m(b) {}
  friend Mask operator&(Mask a, Mask b) { return Mask(a.m && b.m); }
  friend Mask operator|(Mask a, Mask b) { return Mask(a.m || b.m); }
  friend Mask operator^(Mask a, Mask b) { return Mask(a.m != b.m); }
  Mask operator!() const { return Mask(!m); }
  bool any() const { return m; }
  bool all() const { return m; }
  bool none() const { return !m; }
  int count() const { return m ? 1 : 0; }
  bool lane(int) const { return m; }
};

template <> struct VecI64<1> {
  std::int64_t v{};
  VecI64() = default;
  explicit VecI64(std::int64_t x) : v(x) {}
  friend VecI64 operator+(VecI64 a, VecI64 b) { return VecI64(a.v + b.v); }
  friend VecI64 operator-(VecI64 a, VecI64 b) { return VecI64(a.v - b.v); }
  friend VecI64 operator&(VecI64 a, VecI64 b) { return VecI64(a.v & b.v); }
  friend VecI64 operator|(VecI64 a, VecI64 b) { return VecI64(a.v | b.v); }
  friend VecI64 operator^(VecI64 a, VecI64 b) { return VecI64(a.v ^ b.v); }
  template <int S> VecI64 shl() const { return VecI64(static_cast<std::int64_t>(static_cast<std::uint64_t>(v) << S)); }
  template <int S> VecI64 shr() const { return VecI64(static_cast<std::int64_t>(static_cast<std::uint64_t>(v) >> S)); }
  template <int S> VecI64 sar() const { return VecI64(v >> S); }
  std::int64_t lane(int) const { return v; }
};

template <> struct Vec<double, 1> {
  using value_type = double;
  using mask_type = Mask<double, 1>;
  using int_type = VecI64<1>;
  static constexpr int width = 1;

  double v{};

  Vec() = default;
  Vec(double x) : v(x) {}  // NOLINT: implicit broadcast is the point

  static Vec load(const double* p) { return Vec(*p); }
  static Vec loadu(const double* p) { return Vec(*p); }
  void store(double* p) const { *p = v; }
  void storeu(double* p) const { *p = v; }
  void stream(double* p) const { *p = v; }

  static Vec gather(const double* base, const std::int32_t* idx) { return Vec(base[idx[0]]); }
  void scatter(double* base, const std::int32_t* idx) const { base[idx[0]] = v; }

  double lane(int) const { return v; }
  void set_lane(int, double x) { v = x; }

  friend Vec operator+(Vec a, Vec b) { return Vec(a.v + b.v); }
  friend Vec operator-(Vec a, Vec b) { return Vec(a.v - b.v); }
  friend Vec operator*(Vec a, Vec b) { return Vec(a.v * b.v); }
  friend Vec operator/(Vec a, Vec b) { return Vec(a.v / b.v); }
  Vec operator-() const { return Vec(-v); }
  Vec& operator+=(Vec b) { v += b.v; return *this; }
  Vec& operator-=(Vec b) { v -= b.v; return *this; }
  Vec& operator*=(Vec b) { v *= b.v; return *this; }
  Vec& operator/=(Vec b) { v /= b.v; return *this; }

  friend mask_type operator<(Vec a, Vec b) { return mask_type(a.v < b.v); }
  friend mask_type operator<=(Vec a, Vec b) { return mask_type(a.v <= b.v); }
  friend mask_type operator>(Vec a, Vec b) { return mask_type(a.v > b.v); }
  friend mask_type operator>=(Vec a, Vec b) { return mask_type(a.v >= b.v); }
  friend mask_type operator==(Vec a, Vec b) { return mask_type(a.v == b.v); }
  friend mask_type operator!=(Vec a, Vec b) { return mask_type(a.v != b.v); }
};

inline Vec<double, 1> fmadd(Vec<double, 1> a, Vec<double, 1> b, Vec<double, 1> c) { return {std::fma(a.v, b.v, c.v)}; }
inline Vec<double, 1> fmsub(Vec<double, 1> a, Vec<double, 1> b, Vec<double, 1> c) { return {std::fma(a.v, b.v, -c.v)}; }
inline Vec<double, 1> fnmadd(Vec<double, 1> a, Vec<double, 1> b, Vec<double, 1> c) { return {std::fma(-a.v, b.v, c.v)}; }
inline Vec<double, 1> min(Vec<double, 1> a, Vec<double, 1> b) { return {b.v < a.v ? b.v : a.v}; }
inline Vec<double, 1> max(Vec<double, 1> a, Vec<double, 1> b) { return {a.v < b.v ? b.v : a.v}; }
inline Vec<double, 1> abs(Vec<double, 1> a) { return {std::fabs(a.v)}; }
inline Vec<double, 1> sqrt(Vec<double, 1> a) { return {std::sqrt(a.v)}; }
inline Vec<double, 1> round_nearest(Vec<double, 1> a) { return {std::nearbyint(a.v)}; }
inline Vec<double, 1> floor(Vec<double, 1> a) { return {std::floor(a.v)}; }
inline Vec<double, 1> select(Mask<double, 1> m, Vec<double, 1> a, Vec<double, 1> b) { return m.m ? a : b; }
inline double hsum(Vec<double, 1> a) { return a.v; }
inline double hmin(Vec<double, 1> a) { return a.v; }
inline double hmax(Vec<double, 1> a) { return a.v; }

inline VecI64<1> bitcast_to_int(Vec<double, 1> a) {
  std::int64_t i; std::memcpy(&i, &a.v, 8); return VecI64<1>(i);
}
inline Vec<double, 1> bitcast_to_double(VecI64<1> a) {
  double d; std::memcpy(&d, &a.v, 8); return {d};
}
// Convert an integer-valued double to int64 (round-to-nearest).
inline VecI64<1> to_int(Vec<double, 1> a) { return VecI64<1>(static_cast<std::int64_t>(std::llrint(a.v))); }
inline Vec<double, 1> to_double(VecI64<1> a) { return {static_cast<double>(a.v)}; }

// ---------------------------------------------------------------------------
// AVX2 specialization (W = 4)
// ---------------------------------------------------------------------------

template <> struct Mask<double, 4> {
  __m256d m{};  // all-ones / all-zeros lanes
  Mask() = default;
  explicit Mask(__m256d x) : m(x) {}
  explicit Mask(bool b) : m(b ? _mm256_castsi256_pd(_mm256_set1_epi64x(-1)) : _mm256_setzero_pd()) {}
  friend Mask operator&(Mask a, Mask b) { return Mask(_mm256_and_pd(a.m, b.m)); }
  friend Mask operator|(Mask a, Mask b) { return Mask(_mm256_or_pd(a.m, b.m)); }
  friend Mask operator^(Mask a, Mask b) { return Mask(_mm256_xor_pd(a.m, b.m)); }
  Mask operator!() const { return Mask(_mm256_xor_pd(m, _mm256_castsi256_pd(_mm256_set1_epi64x(-1)))); }
  int bits() const { return _mm256_movemask_pd(m); }
  bool any() const { return bits() != 0; }
  bool all() const { return bits() == 0xf; }
  bool none() const { return bits() == 0; }
  int count() const { return __builtin_popcount(static_cast<unsigned>(bits())); }
  bool lane(int i) const { return (bits() >> i) & 1; }
};

template <> struct VecI64<4> {
  __m256i v{};
  VecI64() = default;
  explicit VecI64(__m256i x) : v(x) {}
  explicit VecI64(std::int64_t x) : v(_mm256_set1_epi64x(x)) {}
  friend VecI64 operator+(VecI64 a, VecI64 b) { return VecI64(_mm256_add_epi64(a.v, b.v)); }
  friend VecI64 operator-(VecI64 a, VecI64 b) { return VecI64(_mm256_sub_epi64(a.v, b.v)); }
  friend VecI64 operator&(VecI64 a, VecI64 b) { return VecI64(_mm256_and_si256(a.v, b.v)); }
  friend VecI64 operator|(VecI64 a, VecI64 b) { return VecI64(_mm256_or_si256(a.v, b.v)); }
  friend VecI64 operator^(VecI64 a, VecI64 b) { return VecI64(_mm256_xor_si256(a.v, b.v)); }
  template <int S> VecI64 shl() const { return VecI64(_mm256_slli_epi64(v, S)); }
  template <int S> VecI64 shr() const { return VecI64(_mm256_srli_epi64(v, S)); }
  template <int S> VecI64 sar() const {
#if defined(FINBENCH_HAVE_AVX512)
    return VecI64(_mm256_srai_epi64(v, S));
#else
    alignas(32) std::int64_t t[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
    for (auto& x : t) x >>= S;
    return VecI64(_mm256_load_si256(reinterpret_cast<const __m256i*>(t)));
#endif
  }
  std::int64_t lane(int i) const {
    alignas(32) std::int64_t t[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
    return t[i];
  }
};

template <> struct Vec<double, 4> {
  using value_type = double;
  using mask_type = Mask<double, 4>;
  using int_type = VecI64<4>;
  static constexpr int width = 4;

  __m256d v{};

  Vec() = default;
  Vec(double x) : v(_mm256_set1_pd(x)) {}  // NOLINT: implicit broadcast
  explicit Vec(__m256d x) : v(x) {}
  Vec(double a, double b, double c, double d) : v(_mm256_setr_pd(a, b, c, d)) {}

  static Vec load(const double* p) { return Vec(_mm256_load_pd(p)); }
  static Vec loadu(const double* p) { return Vec(_mm256_loadu_pd(p)); }
  void store(double* p) const { _mm256_store_pd(p, v); }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }
  void stream(double* p) const { _mm256_stream_pd(p, v); }

  static Vec gather(const double* base, const std::int32_t* idx) {
    return Vec(_mm256_i32gather_pd(base, _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)), 8));
  }
  void scatter(double* base, const std::int32_t* idx) const {
    alignas(32) double t[4];
    store(t);
    for (int i = 0; i < 4; ++i) base[idx[i]] = t[i];
  }

  double lane(int i) const {
    alignas(32) double t[4];
    store(t);
    return t[i];
  }
  void set_lane(int i, double x) {
    alignas(32) double t[4];
    store(t);
    t[i] = x;
    v = _mm256_load_pd(t);
  }

  friend Vec operator+(Vec a, Vec b) { return Vec(_mm256_add_pd(a.v, b.v)); }
  friend Vec operator-(Vec a, Vec b) { return Vec(_mm256_sub_pd(a.v, b.v)); }
  friend Vec operator*(Vec a, Vec b) { return Vec(_mm256_mul_pd(a.v, b.v)); }
  friend Vec operator/(Vec a, Vec b) { return Vec(_mm256_div_pd(a.v, b.v)); }
  Vec operator-() const { return Vec(_mm256_xor_pd(v, _mm256_set1_pd(-0.0))); }
  Vec& operator+=(Vec b) { v = _mm256_add_pd(v, b.v); return *this; }
  Vec& operator-=(Vec b) { v = _mm256_sub_pd(v, b.v); return *this; }
  Vec& operator*=(Vec b) { v = _mm256_mul_pd(v, b.v); return *this; }
  Vec& operator/=(Vec b) { v = _mm256_div_pd(v, b.v); return *this; }

  friend mask_type operator<(Vec a, Vec b) { return mask_type(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)); }
  friend mask_type operator<=(Vec a, Vec b) { return mask_type(_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)); }
  friend mask_type operator>(Vec a, Vec b) { return mask_type(_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)); }
  friend mask_type operator>=(Vec a, Vec b) { return mask_type(_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)); }
  friend mask_type operator==(Vec a, Vec b) { return mask_type(_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)); }
  friend mask_type operator!=(Vec a, Vec b) { return mask_type(_mm256_cmp_pd(a.v, b.v, _CMP_NEQ_UQ)); }
};

inline Vec<double, 4> fmadd(Vec<double, 4> a, Vec<double, 4> b, Vec<double, 4> c) { return Vec<double, 4>(_mm256_fmadd_pd(a.v, b.v, c.v)); }
inline Vec<double, 4> fmsub(Vec<double, 4> a, Vec<double, 4> b, Vec<double, 4> c) { return Vec<double, 4>(_mm256_fmsub_pd(a.v, b.v, c.v)); }
inline Vec<double, 4> fnmadd(Vec<double, 4> a, Vec<double, 4> b, Vec<double, 4> c) { return Vec<double, 4>(_mm256_fnmadd_pd(a.v, b.v, c.v)); }
inline Vec<double, 4> min(Vec<double, 4> a, Vec<double, 4> b) { return Vec<double, 4>(_mm256_min_pd(a.v, b.v)); }
inline Vec<double, 4> max(Vec<double, 4> a, Vec<double, 4> b) { return Vec<double, 4>(_mm256_max_pd(a.v, b.v)); }
inline Vec<double, 4> abs(Vec<double, 4> a) { return Vec<double, 4>(_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)); }
inline Vec<double, 4> sqrt(Vec<double, 4> a) { return Vec<double, 4>(_mm256_sqrt_pd(a.v)); }
inline Vec<double, 4> round_nearest(Vec<double, 4> a) { return Vec<double, 4>(_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)); }
inline Vec<double, 4> floor(Vec<double, 4> a) { return Vec<double, 4>(_mm256_floor_pd(a.v)); }
inline Vec<double, 4> select(Mask<double, 4> m, Vec<double, 4> a, Vec<double, 4> b) { return Vec<double, 4>(_mm256_blendv_pd(b.v, a.v, m.m)); }

inline double hsum(Vec<double, 4> a) {
  __m128d lo = _mm256_castpd256_pd128(a.v);
  __m128d hi = _mm256_extractf128_pd(a.v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}
inline double hmin(Vec<double, 4> a) {
  __m128d lo = _mm_min_pd(_mm256_castpd256_pd128(a.v), _mm256_extractf128_pd(a.v, 1));
  return _mm_cvtsd_f64(_mm_min_sd(lo, _mm_unpackhi_pd(lo, lo)));
}
inline double hmax(Vec<double, 4> a) {
  __m128d lo = _mm_max_pd(_mm256_castpd256_pd128(a.v), _mm256_extractf128_pd(a.v, 1));
  return _mm_cvtsd_f64(_mm_max_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

inline VecI64<4> bitcast_to_int(Vec<double, 4> a) { return VecI64<4>(_mm256_castpd_si256(a.v)); }
inline Vec<double, 4> bitcast_to_double(VecI64<4> a) { return Vec<double, 4>(_mm256_castsi256_pd(a.v)); }
inline VecI64<4> to_int(Vec<double, 4> a) {
  // Exponents / step counts fit easily in int32: go through cvtpd_epi32.
  __m128i i32 = _mm256_cvtpd_epi32(a.v);
  return VecI64<4>(_mm256_cvtepi32_epi64(i32));
}
inline Vec<double, 4> to_double(VecI64<4> a) {
#if defined(FINBENCH_HAVE_AVX512)
  return Vec<double, 4>(_mm256_cvtepi64_pd(a.v));
#else
  alignas(32) std::int64_t t[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(t), a.v);
  return Vec<double, 4>(static_cast<double>(t[0]), static_cast<double>(t[1]),
                        static_cast<double>(t[2]), static_cast<double>(t[3]));
#endif
}

#if defined(FINBENCH_HAVE_AVX512)
// ---------------------------------------------------------------------------
// AVX-512 specialization (W = 8) — the KNC-class 512-bit path
// ---------------------------------------------------------------------------

template <> struct Mask<double, 8> {
  __mmask8 m{};
  Mask() = default;
  explicit Mask(__mmask8 x) : m(x) {}
  explicit Mask(bool b) : m(b ? static_cast<__mmask8>(0xff) : static_cast<__mmask8>(0)) {}
  friend Mask operator&(Mask a, Mask b) { return Mask(static_cast<__mmask8>(a.m & b.m)); }
  friend Mask operator|(Mask a, Mask b) { return Mask(static_cast<__mmask8>(a.m | b.m)); }
  friend Mask operator^(Mask a, Mask b) { return Mask(static_cast<__mmask8>(a.m ^ b.m)); }
  Mask operator!() const { return Mask(static_cast<__mmask8>(~m)); }
  int bits() const { return m; }
  bool any() const { return m != 0; }
  bool all() const { return m == 0xff; }
  bool none() const { return m == 0; }
  int count() const { return __builtin_popcount(static_cast<unsigned>(m)); }
  bool lane(int i) const { return (m >> i) & 1; }
};

template <> struct VecI64<8> {
  __m512i v{};
  VecI64() = default;
  explicit VecI64(__m512i x) : v(x) {}
  explicit VecI64(std::int64_t x) : v(_mm512_set1_epi64(x)) {}
  friend VecI64 operator+(VecI64 a, VecI64 b) { return VecI64(_mm512_add_epi64(a.v, b.v)); }
  friend VecI64 operator-(VecI64 a, VecI64 b) { return VecI64(_mm512_sub_epi64(a.v, b.v)); }
  friend VecI64 operator&(VecI64 a, VecI64 b) { return VecI64(_mm512_and_si512(a.v, b.v)); }
  friend VecI64 operator|(VecI64 a, VecI64 b) { return VecI64(_mm512_or_si512(a.v, b.v)); }
  friend VecI64 operator^(VecI64 a, VecI64 b) { return VecI64(_mm512_xor_si512(a.v, b.v)); }
  template <int S> VecI64 shl() const { return VecI64(_mm512_slli_epi64(v, S)); }
  template <int S> VecI64 shr() const { return VecI64(_mm512_srli_epi64(v, S)); }
  template <int S> VecI64 sar() const { return VecI64(_mm512_srai_epi64(v, S)); }
  std::int64_t lane(int i) const {
    alignas(64) std::int64_t t[8];
    _mm512_store_si512(t, v);
    return t[i];
  }
};

template <> struct Vec<double, 8> {
  using value_type = double;
  using mask_type = Mask<double, 8>;
  using int_type = VecI64<8>;
  static constexpr int width = 8;

  __m512d v{};

  Vec() = default;
  Vec(double x) : v(_mm512_set1_pd(x)) {}  // NOLINT: implicit broadcast
  explicit Vec(__m512d x) : v(x) {}

  static Vec load(const double* p) { return Vec(_mm512_load_pd(p)); }
  static Vec loadu(const double* p) { return Vec(_mm512_loadu_pd(p)); }
  void store(double* p) const { _mm512_store_pd(p, v); }
  void storeu(double* p) const { _mm512_storeu_pd(p, v); }
  void stream(double* p) const { _mm512_stream_pd(p, v); }

  static Vec gather(const double* base, const std::int32_t* idx) {
    return Vec(_mm512_i32gather_pd(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), base, 8));
  }
  void scatter(double* base, const std::int32_t* idx) const {
    _mm512_i32scatter_pd(base, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), v, 8);
  }

  double lane(int i) const {
    alignas(64) double t[8];
    store(t);
    return t[i];
  }
  void set_lane(int i, double x) {
    alignas(64) double t[8];
    store(t);
    t[i] = x;
    v = _mm512_load_pd(t);
  }

  friend Vec operator+(Vec a, Vec b) { return Vec(_mm512_add_pd(a.v, b.v)); }
  friend Vec operator-(Vec a, Vec b) { return Vec(_mm512_sub_pd(a.v, b.v)); }
  friend Vec operator*(Vec a, Vec b) { return Vec(_mm512_mul_pd(a.v, b.v)); }
  friend Vec operator/(Vec a, Vec b) { return Vec(_mm512_div_pd(a.v, b.v)); }
  Vec operator-() const { return Vec(_mm512_xor_pd(v, _mm512_set1_pd(-0.0))); }
  Vec& operator+=(Vec b) { v = _mm512_add_pd(v, b.v); return *this; }
  Vec& operator-=(Vec b) { v = _mm512_sub_pd(v, b.v); return *this; }
  Vec& operator*=(Vec b) { v = _mm512_mul_pd(v, b.v); return *this; }
  Vec& operator/=(Vec b) { v = _mm512_div_pd(v, b.v); return *this; }

  friend mask_type operator<(Vec a, Vec b) { return mask_type(_mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ)); }
  friend mask_type operator<=(Vec a, Vec b) { return mask_type(_mm512_cmp_pd_mask(a.v, b.v, _CMP_LE_OQ)); }
  friend mask_type operator>(Vec a, Vec b) { return mask_type(_mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ)); }
  friend mask_type operator>=(Vec a, Vec b) { return mask_type(_mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ)); }
  friend mask_type operator==(Vec a, Vec b) { return mask_type(_mm512_cmp_pd_mask(a.v, b.v, _CMP_EQ_OQ)); }
  friend mask_type operator!=(Vec a, Vec b) { return mask_type(_mm512_cmp_pd_mask(a.v, b.v, _CMP_NEQ_UQ)); }
};

inline Vec<double, 8> fmadd(Vec<double, 8> a, Vec<double, 8> b, Vec<double, 8> c) { return Vec<double, 8>(_mm512_fmadd_pd(a.v, b.v, c.v)); }
inline Vec<double, 8> fmsub(Vec<double, 8> a, Vec<double, 8> b, Vec<double, 8> c) { return Vec<double, 8>(_mm512_fmsub_pd(a.v, b.v, c.v)); }
inline Vec<double, 8> fnmadd(Vec<double, 8> a, Vec<double, 8> b, Vec<double, 8> c) { return Vec<double, 8>(_mm512_fnmadd_pd(a.v, b.v, c.v)); }
inline Vec<double, 8> min(Vec<double, 8> a, Vec<double, 8> b) { return Vec<double, 8>(_mm512_min_pd(a.v, b.v)); }
inline Vec<double, 8> max(Vec<double, 8> a, Vec<double, 8> b) { return Vec<double, 8>(_mm512_max_pd(a.v, b.v)); }
inline Vec<double, 8> abs(Vec<double, 8> a) { return Vec<double, 8>(_mm512_abs_pd(a.v)); }
inline Vec<double, 8> sqrt(Vec<double, 8> a) { return Vec<double, 8>(_mm512_sqrt_pd(a.v)); }
inline Vec<double, 8> round_nearest(Vec<double, 8> a) { return Vec<double, 8>(_mm512_roundscale_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)); }
inline Vec<double, 8> floor(Vec<double, 8> a) { return Vec<double, 8>(_mm512_roundscale_pd(a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)); }
inline Vec<double, 8> select(Mask<double, 8> m, Vec<double, 8> a, Vec<double, 8> b) { return Vec<double, 8>(_mm512_mask_blend_pd(m.m, b.v, a.v)); }
inline double hsum(Vec<double, 8> a) { return _mm512_reduce_add_pd(a.v); }
inline double hmin(Vec<double, 8> a) { return _mm512_reduce_min_pd(a.v); }
inline double hmax(Vec<double, 8> a) { return _mm512_reduce_max_pd(a.v); }

inline VecI64<8> bitcast_to_int(Vec<double, 8> a) { return VecI64<8>(_mm512_castpd_si512(a.v)); }
inline Vec<double, 8> bitcast_to_double(VecI64<8> a) { return Vec<double, 8>(_mm512_castsi512_pd(a.v)); }
inline VecI64<8> to_int(Vec<double, 8> a) { return VecI64<8>(_mm512_cvtpd_epi64(a.v)); }
inline Vec<double, 8> to_double(VecI64<8> a) { return Vec<double, 8>(_mm512_cvtepi64_pd(a.v)); }

#endif  // FINBENCH_HAVE_AVX512

// ---------------------------------------------------------------------------
// Lane permutations
// ---------------------------------------------------------------------------

inline Vec<double, 1> reverse(Vec<double, 1> a) { return a; }
inline Vec<double, 4> reverse(Vec<double, 4> a) {
  return Vec<double, 4>(_mm256_permute4x64_pd(a.v, 0x1B));
}
#if defined(FINBENCH_HAVE_AVX512)
inline Vec<double, 8> reverse(Vec<double, 8> a) {
  const __m512i idx = _mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  return Vec<double, 8>(_mm512_permutexvar_pd(idx, a.v));
}
#endif

// ---------------------------------------------------------------------------
// Generic helpers (work for all specializations)
// ---------------------------------------------------------------------------

// 2^n for integer-valued double n in [-1022, 1023]: build the exponent field
// directly. Used by the vector exp() kernel.
template <class V> inline V pow2n(V n) {
  using I = typename V::int_type;
  I bits = (to_int(n) + I(1023)).template shl<52>();
  return bitcast_to_double(bits);
}

// frexp-style decomposition: a = m * 2^e with m in [1, 2). Assumes a is
// positive, finite and normal (the vector log() kernel guards the rest).
template <class V> inline void split_exponent(V a, V& m, V& e) {
  using I = typename V::int_type;
  I bits = bitcast_to_int(a);
  I exp_field = bits.template shr<52>() & I(0x7ff);
  e = to_double(exp_field - I(1023));
  I mant = (bits & I(0x000fffffffffffffLL)) | I(0x3ff0000000000000LL);
  m = bitcast_to_double(mant);
}

// Software prefetch (the paper's intermediate-level optimization for
// "data structures that do not fit in the cache", Sec. III-B).
inline void prefetch_read(const void* p) { _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0); }
inline void prefetch_nta(const void* p) { _mm_prefetch(static_cast<const char*>(p), _MM_HINT_NTA); }

// Iota: {0, 1, ..., W-1}.
template <class V> inline V iota() {
  alignas(64) double t[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  if constexpr (V::width == 1) return V(0.0);
  else return V::loadu(t);
}

// Copy-sign: magnitude of a, sign of b.
template <class V> inline V copysign(V a, V b) {
  using I = typename V::int_type;
  const I sign_mask(static_cast<std::int64_t>(0x8000000000000000ULL));
  I bits = (bitcast_to_int(a) & I(0x7fffffffffffffffLL)) | (bitcast_to_int(b) & sign_mask);
  return bitcast_to_double(bits);
}

}  // namespace finbench::simd
