// Tests for the Vec<double, W> SIMD wrapper classes: every operation is
// checked lanewise against plain scalar arithmetic, for every width
// compiled into the build.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "finbench/simd/vec.hpp"
#include "finbench/simd/vecf.hpp"

namespace {

using namespace finbench;

template <class V> class VecTest : public ::testing::Test {};

using VecTypes = ::testing::Types<simd::Vec<double, 1>, simd::Vec<double, 4>
#if defined(FINBENCH_HAVE_AVX512)
                                  ,
                                  simd::Vec<double, 8>
#endif
                                  >;
TYPED_TEST_SUITE(VecTest, VecTypes);

template <class V> std::array<double, V::width> to_array(V v) {
  std::array<double, V::width> out{};
  v.storeu(out.data());
  return out;
}

template <class V> V make_seq(double start, double step) {
  alignas(64) double vals[V::width];
  for (int i = 0; i < V::width; ++i) vals[i] = start + step * i;
  return V::loadu(vals);
}

TYPED_TEST(VecTest, BroadcastConstructor) {
  TypeParam v(3.25);
  for (double x : to_array(v)) EXPECT_EQ(x, 3.25);
}

TYPED_TEST(VecTest, LoadStoreRoundtrip) {
  alignas(64) double in[TypeParam::width];
  for (int i = 0; i < TypeParam::width; ++i) in[i] = 1.5 * i - 2.0;
  auto v = TypeParam::load(in);
  alignas(64) double out[TypeParam::width];
  v.store(out);
  for (int i = 0; i < TypeParam::width; ++i) EXPECT_EQ(in[i], out[i]);
}

TYPED_TEST(VecTest, UnalignedLoadStore) {
  double buf[TypeParam::width + 1];
  for (int i = 0; i <= TypeParam::width; ++i) buf[i] = i;
  auto v = TypeParam::loadu(buf + 1);
  double out[TypeParam::width + 1] = {};
  v.storeu(out + 1);
  for (int i = 1; i <= TypeParam::width; ++i) EXPECT_EQ(out[i], i);
}

TYPED_TEST(VecTest, Arithmetic) {
  auto a = make_seq<TypeParam>(1.0, 0.5);
  auto b = make_seq<TypeParam>(-2.0, 1.25);
  auto sum = to_array(a + b);
  auto diff = to_array(a - b);
  auto prod = to_array(a * b);
  auto quot = to_array(a / b);
  for (int i = 0; i < TypeParam::width; ++i) {
    const double x = 1.0 + 0.5 * i, y = -2.0 + 1.25 * i;
    EXPECT_DOUBLE_EQ(sum[i], x + y);
    EXPECT_DOUBLE_EQ(diff[i], x - y);
    EXPECT_DOUBLE_EQ(prod[i], x * y);
    EXPECT_DOUBLE_EQ(quot[i], x / y);
  }
}

TYPED_TEST(VecTest, CompoundAssignment) {
  auto a = make_seq<TypeParam>(1.0, 1.0);
  a += TypeParam(2.0);
  a *= TypeParam(3.0);
  a -= TypeParam(1.0);
  a /= TypeParam(2.0);
  auto r = to_array(a);
  for (int i = 0; i < TypeParam::width; ++i) {
    EXPECT_DOUBLE_EQ(r[i], ((1.0 + i + 2.0) * 3.0 - 1.0) / 2.0);
  }
}

TYPED_TEST(VecTest, Negation) {
  auto v = to_array(-make_seq<TypeParam>(-1.0, 1.0));
  for (int i = 0; i < TypeParam::width; ++i) EXPECT_DOUBLE_EQ(v[i], 1.0 - i);
}

TYPED_TEST(VecTest, FusedOps) {
  auto a = make_seq<TypeParam>(1.1, 0.3);
  auto b = make_seq<TypeParam>(2.2, -0.7);
  auto c = make_seq<TypeParam>(-3.3, 0.05);
  auto fma = to_array(fmadd(a, b, c));
  auto fms = to_array(fmsub(a, b, c));
  auto fnma = to_array(fnmadd(a, b, c));
  for (int i = 0; i < TypeParam::width; ++i) {
    const double x = 1.1 + 0.3 * i, y = 2.2 - 0.7 * i, z = -3.3 + 0.05 * i;
    EXPECT_DOUBLE_EQ(fma[i], std::fma(x, y, z));
    EXPECT_DOUBLE_EQ(fms[i], std::fma(x, y, -z));
    EXPECT_DOUBLE_EQ(fnma[i], std::fma(-x, y, z));
  }
}

TYPED_TEST(VecTest, MinMaxAbsSqrt) {
  auto a = make_seq<TypeParam>(-2.0, 1.0);
  auto b = make_seq<TypeParam>(2.0, -1.0);
  auto mn = to_array(min(a, b));
  auto mx = to_array(max(a, b));
  auto ab = to_array(abs(a));
  auto sq = to_array(sqrt(abs(a) + TypeParam(1.0)));
  for (int i = 0; i < TypeParam::width; ++i) {
    const double x = -2.0 + i, y = 2.0 - i;
    EXPECT_DOUBLE_EQ(mn[i], std::min(x, y));
    EXPECT_DOUBLE_EQ(mx[i], std::max(x, y));
    EXPECT_DOUBLE_EQ(ab[i], std::fabs(x));
    EXPECT_DOUBLE_EQ(sq[i], std::sqrt(std::fabs(x) + 1.0));
  }
}

TYPED_TEST(VecTest, RoundingOps) {
  auto a = make_seq<TypeParam>(-2.5, 1.3);
  auto rn = to_array(round_nearest(a));
  auto fl = to_array(floor(a));
  for (int i = 0; i < TypeParam::width; ++i) {
    const double x = -2.5 + 1.3 * i;
    EXPECT_DOUBLE_EQ(rn[i], std::nearbyint(x));
    EXPECT_DOUBLE_EQ(fl[i], std::floor(x));
  }
}

TYPED_TEST(VecTest, ComparisonAndSelect) {
  auto a = make_seq<TypeParam>(0.0, 1.0);
  auto b = TypeParam(1.5);
  auto m = a < b;
  auto sel = to_array(select(m, TypeParam(1.0), TypeParam(-1.0)));
  for (int i = 0; i < TypeParam::width; ++i) {
    EXPECT_DOUBLE_EQ(sel[i], i < 1.5 ? 1.0 : -1.0);
    EXPECT_EQ(m.lane(i), i < 1.5);
  }
}

TYPED_TEST(VecTest, AllComparisonOperators) {
  auto a = make_seq<TypeParam>(0.0, 1.0);
  auto b = TypeParam(1.0);
  for (int i = 0; i < TypeParam::width; ++i) {
    const double x = i;
    EXPECT_EQ((a < b).lane(i), x < 1.0);
    EXPECT_EQ((a <= b).lane(i), x <= 1.0);
    EXPECT_EQ((a > b).lane(i), x > 1.0);
    EXPECT_EQ((a >= b).lane(i), x >= 1.0);
    EXPECT_EQ((a == b).lane(i), x == 1.0);
    EXPECT_EQ((a != b).lane(i), x != 1.0);
  }
}

TYPED_TEST(VecTest, MaskLogic) {
  auto a = make_seq<TypeParam>(0.0, 1.0);
  auto lo = a < TypeParam(2.0);
  auto hi = a > TypeParam(0.0);
  auto band = lo & hi;
  auto bor = lo | hi;
  auto bxor = lo ^ hi;
  auto bnot = !lo;
  for (int i = 0; i < TypeParam::width; ++i) {
    const bool l = i < 2.0, h = i > 0.0;
    EXPECT_EQ(band.lane(i), l && h);
    EXPECT_EQ(bor.lane(i), l || h);
    EXPECT_EQ(bxor.lane(i), l != h);
    EXPECT_EQ(bnot.lane(i), !l);
  }
}

TYPED_TEST(VecTest, MaskAggregates) {
  auto a = make_seq<TypeParam>(0.0, 1.0);
  auto none_m = a < TypeParam(-1.0);
  auto all_m = a >= TypeParam(0.0);
  EXPECT_TRUE(none_m.none());
  EXPECT_FALSE(none_m.any());
  EXPECT_EQ(none_m.count(), 0);
  EXPECT_TRUE(all_m.all());
  EXPECT_EQ(all_m.count(), TypeParam::width);
  if (TypeParam::width > 1) {
    auto some = a < TypeParam(1.0);  // only lane 0
    EXPECT_TRUE(some.any());
    EXPECT_FALSE(some.all());
    EXPECT_EQ(some.count(), 1);
  }
}

TYPED_TEST(VecTest, HorizontalReductions) {
  auto a = make_seq<TypeParam>(1.0, 2.0);
  double want_sum = 0.0, want_min = 1e300, want_max = -1e300;
  for (int i = 0; i < TypeParam::width; ++i) {
    const double x = 1.0 + 2.0 * i;
    want_sum += x;
    want_min = std::min(want_min, x);
    want_max = std::max(want_max, x);
  }
  EXPECT_DOUBLE_EQ(hsum(a), want_sum);
  EXPECT_DOUBLE_EQ(hmin(a), want_min);
  EXPECT_DOUBLE_EQ(hmax(a), want_max);
}

TYPED_TEST(VecTest, LaneAccess) {
  auto a = make_seq<TypeParam>(10.0, 1.0);
  for (int i = 0; i < TypeParam::width; ++i) EXPECT_DOUBLE_EQ(a.lane(i), 10.0 + i);
  a.set_lane(0, -5.0);
  EXPECT_DOUBLE_EQ(a.lane(0), -5.0);
  for (int i = 1; i < TypeParam::width; ++i) EXPECT_DOUBLE_EQ(a.lane(i), 10.0 + i);
}

TYPED_TEST(VecTest, Gather) {
  double base[32];
  for (int i = 0; i < 32; ++i) base[i] = 100.0 + i;
  alignas(64) std::int32_t idx[TypeParam::width];
  for (int i = 0; i < TypeParam::width; ++i) idx[i] = 3 * i + 1;
  auto g = to_array(TypeParam::gather(base, idx));
  for (int i = 0; i < TypeParam::width; ++i) EXPECT_DOUBLE_EQ(g[i], 100.0 + 3 * i + 1);
}

TYPED_TEST(VecTest, Scatter) {
  double base[32] = {};
  alignas(64) std::int32_t idx[TypeParam::width];
  for (int i = 0; i < TypeParam::width; ++i) idx[i] = 2 * i;
  make_seq<TypeParam>(1.0, 1.0).scatter(base, idx);
  for (int i = 0; i < TypeParam::width; ++i) EXPECT_DOUBLE_EQ(base[2 * i], 1.0 + i);
}

TYPED_TEST(VecTest, Reverse) {
  auto a = make_seq<TypeParam>(0.0, 1.0);
  auto r = to_array(reverse(a));
  for (int i = 0; i < TypeParam::width; ++i) {
    EXPECT_DOUBLE_EQ(r[i], TypeParam::width - 1.0 - i);
  }
}

TYPED_TEST(VecTest, Pow2n) {
  for (double n : {-1022.0, -52.0, -1.0, 0.0, 1.0, 10.0, 1023.0}) {
    auto r = to_array(simd::pow2n(TypeParam(n)));
    for (double x : r) EXPECT_DOUBLE_EQ(x, std::ldexp(1.0, static_cast<int>(n)));
  }
}

TYPED_TEST(VecTest, SplitExponent) {
  for (double x : {1.0, 2.0, 0.75, 1e-10, 123456.789, 1e300, 2.2250738585072014e-308}) {
    TypeParam m, e;
    simd::split_exponent(TypeParam(x), m, e);
    for (int i = 0; i < TypeParam::width; ++i) {
      const double mm = m.lane(i), ee = e.lane(i);
      EXPECT_GE(mm, 1.0);
      EXPECT_LT(mm, 2.0);
      EXPECT_DOUBLE_EQ(mm * std::ldexp(1.0, static_cast<int>(ee)), x);
    }
  }
}

TYPED_TEST(VecTest, CopySign) {
  auto mags = make_seq<TypeParam>(1.0, 1.0);
  auto signs = make_seq<TypeParam>(-1.0, 0.75);
  auto r = to_array(simd::copysign(mags, signs));
  for (int i = 0; i < TypeParam::width; ++i) {
    EXPECT_DOUBLE_EQ(r[i], std::copysign(1.0 + i, -1.0 + 0.75 * i));
  }
}

TYPED_TEST(VecTest, IntRoundtrip) {
  using I = typename TypeParam::int_type;
  for (double x : {-1000.0, -3.0, 0.0, 7.0, 123456.0}) {
    I iv = simd::to_int(TypeParam(x));
    for (int l = 0; l < TypeParam::width; ++l) {
      EXPECT_EQ(iv.lane(l), static_cast<std::int64_t>(x));
    }
    auto back = to_array(simd::to_double(iv));
    for (double b : back) EXPECT_DOUBLE_EQ(b, x);
  }
}

TYPED_TEST(VecTest, IntBitOps) {
  using I = typename TypeParam::int_type;
  const std::int64_t a = 0x0123456789abcdefLL, b = 0x00ff00ff00ff00ffLL;
  EXPECT_EQ((I(a) & I(b)).lane(0), a & b);
  EXPECT_EQ((I(a) | I(b)).lane(0), a | b);
  EXPECT_EQ((I(a) ^ I(b)).lane(0), a ^ b);
  EXPECT_EQ((I(a) + I(b)).lane(0), a + b);
  EXPECT_EQ((I(a) - I(b)).lane(0), a - b);
  EXPECT_EQ(I(a).template shl<8>().lane(0), static_cast<std::int64_t>(
                                                static_cast<std::uint64_t>(a) << 8));
  EXPECT_EQ(I(a).template shr<8>().lane(0), static_cast<std::int64_t>(
                                                static_cast<std::uint64_t>(a) >> 8));
  EXPECT_EQ(I(-64).template sar<3>().lane(0), -8);
}

TYPED_TEST(VecTest, BitcastRoundtrip) {
  auto v = make_seq<TypeParam>(-1.5, 2.25);
  auto round = to_array(simd::bitcast_to_double(simd::bitcast_to_int(v)));
  for (int i = 0; i < TypeParam::width; ++i) EXPECT_DOUBLE_EQ(round[i], -1.5 + 2.25 * i);
}

TYPED_TEST(VecTest, StreamingStore) {
  alignas(64) double out[TypeParam::width];
  make_seq<TypeParam>(4.0, -1.0).stream(out);
  for (int i = 0; i < TypeParam::width; ++i) EXPECT_DOUBLE_EQ(out[i], 4.0 - i);
}

// Randomized lanewise-equivalence sweep: any expression tree over Vec must
// equal the scalar evaluation per lane.
TYPED_TEST(VecTest, RandomizedExpressionEquivalence) {
  std::mt19937_64 gen(1234);
  std::uniform_real_distribution<double> d(-10.0, 10.0);
  for (int rep = 0; rep < 200; ++rep) {
    alignas(64) double xa[TypeParam::width], ya[TypeParam::width], za[TypeParam::width];
    for (int i = 0; i < TypeParam::width; ++i) {
      xa[i] = d(gen);
      ya[i] = d(gen);
      za[i] = d(gen);
    }
    auto x = TypeParam::loadu(xa), y = TypeParam::loadu(ya), z = TypeParam::loadu(za);
    auto r = to_array(select(x > y, fmadd(x, y, z), min(x, z) * max(y, z) - abs(x)));
    for (int i = 0; i < TypeParam::width; ++i) {
      const double expect = xa[i] > ya[i]
                                ? std::fma(xa[i], ya[i], za[i])
                                : std::min(xa[i], za[i]) * std::max(ya[i], za[i]) - std::fabs(xa[i]);
      EXPECT_DOUBLE_EQ(r[i], expect);
    }
  }
}

TEST(SimdConfig, MaxWidthMatchesBuild) {
#if defined(FINBENCH_HAVE_AVX512)
  EXPECT_EQ(simd::kMaxVectorWidth, 8);
#else
  EXPECT_EQ(simd::kMaxVectorWidth, 4);
#endif
}

// The one width dispatcher: each Width's lane count for double and for
// float in this build, handed to the callee as a compile-time constant.
TEST(SimdWidth, DispatcherMapsEveryWidthToItsLanes) {
#if defined(FINBENCH_HAVE_AVX512)
  constexpr int kWide = 8;
#else
  constexpr int kWide = 4;  // kAvx512 keeps meaning the AVX2 lanes
#endif
  struct Row {
    simd::Width w;
    int dbl, flt;
  };
  const Row table[] = {{simd::Width::kScalar, 1, 1},
                       {simd::Width::kAvx2, 4, 8},
                       {simd::Width::kAvx512, kWide, 2 * kWide},
                       {simd::Width::kAuto, kWide, 2 * kWide}};
  for (const Row& r : table) {
    EXPECT_EQ(simd::lanes<double>(r.w), r.dbl) << static_cast<int>(r.w);
    EXPECT_EQ(simd::lanes<float>(r.w), r.flt) << static_cast<int>(r.w);
    EXPECT_EQ(simd::with_lanes<double>(r.w, [](auto L) { return simd::Vec<double, L>::width; }),
              r.dbl);
    EXPECT_EQ(simd::with_lanes<float>(r.w, [](auto L) { return simd::Vec<float, L>::width; }),
              r.flt);
  }
  static_assert(simd::lanes<double>(simd::Width::kAuto) == simd::kMaxVectorWidth);
}

TEST(SimdIota, ProducesLaneIndices) {
  auto v4 = simd::iota<simd::Vec<double, 4>>();
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(v4.lane(i), i);
#if defined(FINBENCH_HAVE_AVX512)
  auto v8 = simd::iota<simd::Vec<double, 8>>();
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(v8.lane(i), i);
#endif
}

}  // namespace
