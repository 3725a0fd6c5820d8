// Tests for the single-precision SIMD layer (Vec<float, W>), the float
// transcendental kernels, and the SP Black–Scholes variant.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/kernels/blackscholes.hpp"
#include "finbench/simd/vecf.hpp"
#include "finbench/vecmath/vecmathf.hpp"
#include "float_lanes.hpp"

namespace {

using namespace finbench;

template <class V> class VecFTest : public ::testing::Test {};

using VecFTypes = ::testing::Types<simd::Vec<float, 1>, simd::Vec<float, 8>
#if defined(FINBENCH_HAVE_AVX512)
                                   ,
                                   simd::Vec<float, 16>
#endif
                                   >;
TYPED_TEST_SUITE(VecFTest, VecFTypes);

template <class V> V seq(float start, float step) {
  alignas(64) float vals[V::width];
  for (int i = 0; i < V::width; ++i) vals[i] = start + step * static_cast<float>(i);
  return V::loadu(vals);
}

TYPED_TEST(VecFTest, Arithmetic) {
  auto a = seq<TypeParam>(1.0f, 0.5f);
  auto b = seq<TypeParam>(-2.0f, 1.25f);
  auto sum = a + b;
  auto prod = a * b;
  for (int i = 0; i < TypeParam::width; ++i) {
    const float x = 1.0f + 0.5f * i, y = -2.0f + 1.25f * i;
    EXPECT_FLOAT_EQ(sum.lane(i), x + y);
    EXPECT_FLOAT_EQ(prod.lane(i), x * y);
  }
}

TYPED_TEST(VecFTest, FmaMinMaxAbsSqrt) {
  auto a = seq<TypeParam>(-3.0f, 1.0f);
  auto b = seq<TypeParam>(2.0f, -0.5f);
  auto c = TypeParam(0.25f);
  auto f = fmadd(a, b, c);
  auto mn = min(a, b);
  auto mx = max(a, b);
  auto ab = abs(a);
  auto sq = sqrt(abs(a) + TypeParam(1.0f));
  for (int i = 0; i < TypeParam::width; ++i) {
    const float x = -3.0f + i, y = 2.0f - 0.5f * i;
    EXPECT_FLOAT_EQ(f.lane(i), std::fmaf(x, y, 0.25f));
    EXPECT_FLOAT_EQ(mn.lane(i), std::min(x, y));
    EXPECT_FLOAT_EQ(mx.lane(i), std::max(x, y));
    EXPECT_FLOAT_EQ(ab.lane(i), std::fabs(x));
    EXPECT_FLOAT_EQ(sq.lane(i), std::sqrt(std::fabs(x) + 1.0f));
  }
}

TYPED_TEST(VecFTest, SelectAndMasks) {
  auto a = seq<TypeParam>(0.0f, 1.0f);
  auto m = a < TypeParam(2.5f);
  auto sel = select(m, TypeParam(1.0f), TypeParam(-1.0f));
  for (int i = 0; i < TypeParam::width; ++i) {
    EXPECT_FLOAT_EQ(sel.lane(i), i < 2.5f ? 1.0f : -1.0f);
    EXPECT_EQ(m.lane(i), i < 2.5f);
  }
  EXPECT_TRUE((a >= TypeParam(0.0f)).all());
  EXPECT_TRUE((a < TypeParam(0.0f)).none());
}

TYPED_TEST(VecFTest, Pow2nAndSplitExponent) {
  for (float n : {-126.0f, -10.0f, 0.0f, 5.0f, 127.0f}) {
    auto r = simd::pow2n_f(TypeParam(n));
    for (int i = 0; i < TypeParam::width; ++i) {
      EXPECT_FLOAT_EQ(r.lane(i), std::ldexp(1.0f, static_cast<int>(n)));
    }
  }
  for (float x : {1.0f, 0.75f, 1234.5f, 1e-20f, 3e20f}) {
    TypeParam m, e;
    simd::split_exponent_f(TypeParam(x), m, e);
    for (int i = 0; i < TypeParam::width; ++i) {
      EXPECT_GE(m.lane(i), 1.0f);
      EXPECT_LT(m.lane(i), 2.0f);
      EXPECT_FLOAT_EQ(m.lane(i) * std::ldexp(1.0f, static_cast<int>(e.lane(i))), x);
    }
  }
}

TYPED_TEST(VecFTest, ExpfAccuracy) {
  std::mt19937 gen(1);
  std::uniform_real_distribution<float> d(-80.0f, 80.0f);
  for (int i = 0; i < 20000; ++i) {
    const float x = d(gen);
    const float mine = vecmath::expf(TypeParam(x)).lane(0);
    const float ref = std::exp(x);
    EXPECT_NEAR(mine, ref, 4e-7f * std::fabs(ref)) << x;
  }
  EXPECT_EQ(vecmath::expf(TypeParam(100.0f)).lane(0), std::numeric_limits<float>::infinity());
  EXPECT_EQ(vecmath::expf(TypeParam(-100.0f)).lane(0), 0.0f);
}

TYPED_TEST(VecFTest, LogfAccuracy) {
  std::mt19937 gen(2);
  std::uniform_real_distribution<float> d(-30.0f, 30.0f);
  for (int i = 0; i < 20000; ++i) {
    const float x = std::exp(d(gen));
    const float mine = vecmath::logf(TypeParam(x)).lane(0);
    const float ref = std::log(x);
    EXPECT_NEAR(mine, ref, 4e-7f * std::max(1.0f, std::fabs(ref))) << x;
  }
  EXPECT_TRUE(std::isnan(vecmath::logf(TypeParam(-1.0f)).lane(0)));
  EXPECT_EQ(vecmath::logf(TypeParam(0.0f)).lane(0), -std::numeric_limits<float>::infinity());
}

TYPED_TEST(VecFTest, ErffAccuracy) {
  std::mt19937 gen(3);
  std::uniform_real_distribution<float> d(-5.0f, 5.0f);
  for (int i = 0; i < 20000; ++i) {
    const float x = d(gen);
    // A&S 7.1.26 rational: ~4e-7 absolute once float rounding stacks.
    EXPECT_NEAR(vecmath::erff(TypeParam(x)).lane(0), std::erf(x), 6e-7f) << x;
  }
}

TYPED_TEST(VecFTest, CndfMatchesDouble) {
  for (float x : {-4.0f, -1.0f, 0.0f, 0.5f, 2.0f, 4.0f}) {
    const double ref = 0.5 * std::erfc(-static_cast<double>(x) * 0.7071067811865475244);
    EXPECT_NEAR(vecmath::cndf(TypeParam(x)).lane(0), static_cast<float>(ref), 6e-7f);
  }
}

// --- SP Black–Scholes kernel --------------------------------------------------

class BsSpWidthTest : public ::testing::TestWithParam<test::FloatLanes> {
 protected:
  static kernels::bs::Width width() { return test::width_of(GetParam()); }
};
INSTANTIATE_TEST_SUITE_P(Widths, BsSpWidthTest, ::testing::ValuesIn(test::kAllFloatLanes));

TEST_P(BsSpWidthTest, MatchesDoublePrecisionWithinSpTolerance) {
  for (std::size_t n : {1UL, 7UL, 16UL, 17UL, 333UL}) {
    core::Portfolio dp_book = core::Portfolio::bs(n, core::Layout::kBsSoa, 11);
    core::Portfolio sp_book = core::Portfolio::bs(n, core::Layout::kBsSoaF, 11);
    const core::BsSoaView soa = dp_book.view().soa;
    const core::BsSoaFView sp = sp_book.view().sp;
    kernels::bs::price_intermediate(soa);
    kernels::bs::price_intermediate_sp(sp, width());
    for (std::size_t i = 0; i < n; ++i) {
      // SP accumulates ~1e-6 relative error through the transcendentals.
      const double scale = std::max(1.0, soa.call[i]);
      EXPECT_NEAR(sp.call[i], soa.call[i], 5e-5 * scale) << "n=" << n << " i=" << i;
      EXPECT_NEAR(sp.put[i], soa.put[i], 5e-5 * std::max(1.0, soa.put[i]));
    }
  }
}

TEST_P(BsSpWidthTest, PutCallParityInSingle) {
  core::Portfolio book = core::Portfolio::bs(128, core::Layout::kBsSoaF, 4);
  const core::BsSoaFView sp = book.view().sp;
  kernels::bs::price_intermediate_sp(sp, width());
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const float rhs = sp.spot[i] - sp.strike[i] * std::exp(-sp.rate * sp.years[i]);
    EXPECT_NEAR(sp.call[i] - sp.put[i], rhs, 2e-4f * std::max(1.0f, std::fabs(rhs)));
  }
}

TEST(BsSp, WidthsAgree) {
  core::Portfolio a_book = core::Portfolio::bs(64, core::Layout::kBsSoaF, 9);
  core::Portfolio b_book = core::Portfolio::bs(64, core::Layout::kBsSoaF, 9);
  const core::BsSoaFView a = a_book.view().sp, b = b_book.view().sp;
  kernels::bs::price_intermediate_sp(a, kernels::bs::Width::kAvx2);
  kernels::bs::price_intermediate_sp(b, kernels::bs::Width::kAuto);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.call[i], b.call[i], 1e-6f * std::max(1.0f, a.call[i]));
  }
}

}  // namespace
