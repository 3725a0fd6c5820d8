// Accuracy and consistency tests for the vector math library (the SVML/VML
// substitute): every function is compared against libm over wide sampled
// ranges, at every compiled width, including special values and the array
// API's tail handling.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "finbench/vecmath/array_math.hpp"
#include "finbench/vecmath/vecmath.hpp"

namespace {

using namespace finbench;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

double ulp_diff(double a, double b) {
  if (a == b) return 0.0;
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) == std::isnan(b) ? 0.0 : 1e18;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  if (scale == 0.0) return 0.0;
  const double eps_at = std::ldexp(std::numeric_limits<double>::epsilon(), std::ilogb(scale));
  return std::fabs(a - b) / eps_at;
}

template <class V> class VecMathTest : public ::testing::Test {};

using VecTypes = ::testing::Types<simd::Vec<double, 1>, simd::Vec<double, 4>
#if defined(FINBENCH_HAVE_AVX512)
                                  ,
                                  simd::Vec<double, 8>
#endif
                                  >;
TYPED_TEST_SUITE(VecMathTest, VecTypes);

// Evaluate `f` lanewise at x (all lanes identical), return lane 0.
template <class V, class F> double eval1(F f, double x) { return f(V(x)).lane(0); }

template <class V, class Mine, class Ref>
void sweep(Mine mine, Ref ref, double lo, double hi, double max_ulp, int n = 20000,
           bool log_space = false) {
  std::mt19937_64 gen(987);
  std::uniform_real_distribution<double> d(log_space ? std::log(lo) : lo,
                                           log_space ? std::log(hi) : hi);
  double worst = 0.0, worst_x = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = d(gen);
    if (log_space) x = std::exp(x);
    const double m = eval1<V>(mine, x);
    const double r = ref(x);
    const double u = ulp_diff(m, r);
    if (u > worst) {
      worst = u;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, max_ulp) << "worst at x = " << worst_x;
}

TYPED_TEST(VecMathTest, ExpAccuracy) {
  sweep<TypeParam>([](auto v) { return vecmath::exp(v); }, [](double x) { return std::exp(x); },
                   -700.0, 700.0, 2.0);
}

TYPED_TEST(VecMathTest, ExpNearZero) {
  sweep<TypeParam>([](auto v) { return vecmath::exp(v); }, [](double x) { return std::exp(x); },
                   -0.01, 0.01, 1.5);
}

TYPED_TEST(VecMathTest, ExpSpecials) {
  EXPECT_EQ(eval1<TypeParam>([](auto v) { return vecmath::exp(v); }, 0.0), 1.0);
  EXPECT_EQ(eval1<TypeParam>([](auto v) { return vecmath::exp(v); }, kInf), kInf);
  EXPECT_EQ(eval1<TypeParam>([](auto v) { return vecmath::exp(v); }, -kInf), 0.0);
  EXPECT_EQ(eval1<TypeParam>([](auto v) { return vecmath::exp(v); }, 800.0), kInf);
  EXPECT_EQ(eval1<TypeParam>([](auto v) { return vecmath::exp(v); }, -800.0), 0.0);
  EXPECT_TRUE(std::isnan(eval1<TypeParam>([](auto v) { return vecmath::exp(v); }, kNan)));
}

TYPED_TEST(VecMathTest, LogAccuracy) {
  sweep<TypeParam>([](auto v) { return vecmath::log(v); }, [](double x) { return std::log(x); },
                   1e-300, 1e300, 2.0, 20000, /*log_space=*/true);
}

TYPED_TEST(VecMathTest, LogNearOne) {
  sweep<TypeParam>([](auto v) { return vecmath::log(v); }, [](double x) { return std::log(x); },
                   0.5, 2.0, 2.0);
}

TYPED_TEST(VecMathTest, LogSubnormal) {
  const double sub = 1e-310;  // subnormal input
  const double m = eval1<TypeParam>([](auto v) { return vecmath::log(v); }, sub);
  EXPECT_LE(ulp_diff(m, std::log(sub)), 4.0);
}

TYPED_TEST(VecMathTest, LogSpecials) {
  auto lg = [](auto v) { return vecmath::log(v); };
  EXPECT_EQ(eval1<TypeParam>(lg, 1.0), 0.0);
  EXPECT_EQ(eval1<TypeParam>(lg, kInf), kInf);
  EXPECT_EQ(eval1<TypeParam>(lg, 0.0), -kInf);
  EXPECT_TRUE(std::isnan(eval1<TypeParam>(lg, -1.0)));
  EXPECT_TRUE(std::isnan(eval1<TypeParam>(lg, kNan)));
}

TYPED_TEST(VecMathTest, ExpLogRoundtrip) {
  std::mt19937_64 gen(55);
  std::uniform_real_distribution<double> d(-300.0, 300.0);
  for (int i = 0; i < 5000; ++i) {
    const double x = d(gen);
    const double y =
        eval1<TypeParam>([](auto v) { return vecmath::log(vecmath::exp(v)); }, x);
    EXPECT_NEAR(y, x, std::fabs(x) * 1e-14 + 1e-14);
  }
}

TYPED_TEST(VecMathTest, ErfAccuracy) {
  sweep<TypeParam>([](auto v) { return vecmath::erf(v); }, [](double x) { return std::erf(x); },
                   -6.0, 6.0, 4.0);
}

TYPED_TEST(VecMathTest, ErfcAccuracyPositive) {
  sweep<TypeParam>([](auto v) { return vecmath::erfc(v); },
                   [](double x) { return std::erfc(x); }, 0.0, 26.0, 8.0);
}

TYPED_TEST(VecMathTest, ErfcAccuracyNegative) {
  sweep<TypeParam>([](auto v) { return vecmath::erfc(v); },
                   [](double x) { return std::erfc(x); }, -6.0, 0.0, 4.0);
}

TYPED_TEST(VecMathTest, ErfSpecials) {
  auto f = [](auto v) { return vecmath::erf(v); };
  EXPECT_EQ(eval1<TypeParam>(f, 0.0), 0.0);
  EXPECT_NEAR(eval1<TypeParam>(f, 10.0), 1.0, 1e-15);
  EXPECT_NEAR(eval1<TypeParam>(f, -10.0), -1.0, 1e-15);
  // Odd symmetry.
  for (double x : {0.1, 0.46875, 0.5, 1.0, 3.0, 5.0}) {
    EXPECT_DOUBLE_EQ(eval1<TypeParam>(f, x), -eval1<TypeParam>(f, -x));
  }
}

TYPED_TEST(VecMathTest, ErfcDeepTailRelativeAccuracy) {
  // The tail is where naive 1-erf dies; relative accuracy must hold.
  for (double x : {5.0, 10.0, 15.0, 20.0, 25.0}) {
    const double m = eval1<TypeParam>([](auto v) { return vecmath::erfc(v); }, x);
    const double r = std::erfc(x);
    EXPECT_NEAR(m / r, 1.0, 1e-12) << "x = " << x;
  }
}

TYPED_TEST(VecMathTest, ErfcBoundaryContinuity) {
  // No jump across the 0.46875 and 4.0 region boundaries.
  for (double b : {0.46875, 4.0}) {
    const double below =
        eval1<TypeParam>([](auto v) { return vecmath::erfc(v); }, b - 1e-9);
    const double above =
        eval1<TypeParam>([](auto v) { return vecmath::erfc(v); }, b + 1e-9);
    EXPECT_NEAR(below, above, std::fabs(below) * 1e-7);
  }
}

TYPED_TEST(VecMathTest, CndMatchesDefinition) {
  sweep<TypeParam>([](auto v) { return vecmath::cnd(v); },
                   [](double x) { return 0.5 * std::erfc(-x * 0.7071067811865475244); }, -37.0,
                   8.0, 8.0);
}

TYPED_TEST(VecMathTest, CndTailsAndCenter) {
  auto f = [](auto v) { return vecmath::cnd(v); };
  EXPECT_DOUBLE_EQ(eval1<TypeParam>(f, 0.0), 0.5);
  EXPECT_NEAR(eval1<TypeParam>(f, 8.0), 1.0, 1e-15);
  const double deep = eval1<TypeParam>(f, -35.0);
  EXPECT_GT(deep, 0.0);  // must not flush to zero
  EXPECT_NEAR(deep / (0.5 * std::erfc(35.0 * 0.7071067811865475244)), 1.0, 1e-11);
}

TYPED_TEST(VecMathTest, InverseCndRoundtrip) {
  std::mt19937_64 gen(4321);
  std::uniform_real_distribution<double> d(1e-14, 1.0 - 1e-14);
  for (int i = 0; i < 20000; ++i) {
    const double p = d(gen);
    const double x = eval1<TypeParam>([](auto v) { return vecmath::inverse_cnd(v); }, p);
    const double p2 = 0.5 * std::erfc(-x * 0.7071067811865475244);
    EXPECT_NEAR(p2 / p, 1.0, 1e-13) << "p = " << p;
  }
}

TYPED_TEST(VecMathTest, InverseCndKnownValues) {
  auto f = [](auto v) { return vecmath::inverse_cnd(v); };
  EXPECT_NEAR(eval1<TypeParam>(f, 0.5), 0.0, 1e-15);
  EXPECT_NEAR(eval1<TypeParam>(f, 0.8413447460685429), 1.0, 1e-12);   // cnd(1)
  EXPECT_NEAR(eval1<TypeParam>(f, 0.15865525393145705), -1.0, 1e-12); // cnd(-1)
  EXPECT_NEAR(eval1<TypeParam>(f, 0.9772498680518208), 2.0, 1e-12);   // cnd(2)
  EXPECT_EQ(eval1<TypeParam>(f, 0.0), -kInf);
  EXPECT_EQ(eval1<TypeParam>(f, 1.0), kInf);
}

TYPED_TEST(VecMathTest, InverseCndSymmetry) {
  for (double p : {0.001, 0.01, 0.02425, 0.1, 0.3}) {
    const double lo = eval1<TypeParam>([](auto v) { return vecmath::inverse_cnd(v); }, p);
    const double hi = eval1<TypeParam>([](auto v) { return vecmath::inverse_cnd(v); }, 1.0 - p);
    EXPECT_NEAR(lo, -hi, std::fabs(lo) * 1e-12 + 1e-13);
  }
}

TYPED_TEST(VecMathTest, SinCosAccuracy) {
  std::mt19937_64 gen(777);
  std::uniform_real_distribution<double> d(-1000.0, 1000.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = d(gen);
    TypeParam s, c;
    vecmath::sincos(TypeParam(x), s, c);
    EXPECT_NEAR(s.lane(0), std::sin(x), 2e-15) << "x = " << x;
    EXPECT_NEAR(c.lane(0), std::cos(x), 2e-15) << "x = " << x;
  }
}

TYPED_TEST(VecMathTest, SinCosPythagorean) {
  std::mt19937_64 gen(31);
  std::uniform_real_distribution<double> d(-50.0, 50.0);
  for (int i = 0; i < 2000; ++i) {
    TypeParam s, c;
    vecmath::sincos(TypeParam(d(gen)), s, c);
    EXPECT_NEAR(s.lane(0) * s.lane(0) + c.lane(0) * c.lane(0), 1.0, 1e-14);
  }
}

TYPED_TEST(VecMathTest, SinCosQuadrants) {
  const double pi = 3.14159265358979323846;
  EXPECT_NEAR(eval1<TypeParam>([](auto v) { return vecmath::sin(v); }, pi / 2), 1.0, 1e-15);
  EXPECT_NEAR(eval1<TypeParam>([](auto v) { return vecmath::cos(v); }, pi), -1.0, 1e-15);
  EXPECT_NEAR(eval1<TypeParam>([](auto v) { return vecmath::sin(v); }, 3 * pi / 2), -1.0, 1e-14);
  EXPECT_NEAR(eval1<TypeParam>([](auto v) { return vecmath::cos(v); }, 2 * pi), 1.0, 1e-14);
}

// --- Lanewise consistency: SIMD widths must match the scalar path exactly ---

template <class V, class F>
void check_lanes_match_scalar(F f, const std::vector<double>& xs) {
  for (std::size_t i = 0; i + V::width <= xs.size(); i += V::width) {
    auto v = V::loadu(xs.data() + i);
    auto r = f(v);
    for (int l = 0; l < V::width; ++l) {
      const double scalar = f(simd::Vec<double, 1>(xs[i + l])).v;
      const double vec = r.lane(l);
      if (std::isnan(scalar)) {
        EXPECT_TRUE(std::isnan(vec));
      } else {
        EXPECT_EQ(vec, scalar) << "lane " << l << " x = " << xs[i + l];
      }
    }
  }
}

TYPED_TEST(VecMathTest, LanewiseIdenticalToScalar) {
  std::vector<double> xs;
  std::mt19937_64 gen(99);
  std::uniform_real_distribution<double> d(-30.0, 30.0);
  for (int i = 0; i < 512; ++i) xs.push_back(d(gen));
  xs.insert(xs.end(), {0.0, -0.0, 1.0, -1.0, 0.46875, 4.0, 26.0, -600.0, 600.0});
  while (xs.size() % 8) xs.push_back(0.5);
  check_lanes_match_scalar<TypeParam>([](auto v) { return vecmath::exp(v); }, xs);
  check_lanes_match_scalar<TypeParam>([](auto v) { return vecmath::erf(v); }, xs);
  check_lanes_match_scalar<TypeParam>([](auto v) { return vecmath::erfc(v); }, xs);
  check_lanes_match_scalar<TypeParam>([](auto v) { return vecmath::cnd(v); }, xs);
}

// --- Array API ----------------------------------------------------------------

class ArrayMathTest : public ::testing::TestWithParam<vecmath::Width> {};

INSTANTIATE_TEST_SUITE_P(Widths, ArrayMathTest,
                         ::testing::Values(vecmath::Width::kScalar, vecmath::Width::kAvx2,
                                           vecmath::Width::kAvx512, vecmath::Width::kAuto));

TEST_P(ArrayMathTest, ExpMatchesLibmWithTails) {
  // Sizes chosen to exercise every tail length.
  for (std::size_t n : {0UL, 1UL, 3UL, 7UL, 8UL, 9UL, 63UL, 64UL, 65UL, 1000UL}) {
    std::vector<double> in(n), out(n);
    std::mt19937_64 gen(n);
    std::uniform_real_distribution<double> d(-30.0, 30.0);
    for (auto& x : in) x = d(gen);
    vecmath::exp(in, out, GetParam());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(ulp_diff(out[i], std::exp(in[i])), 2.0);
    }
  }
}

TEST_P(ArrayMathTest, InPlaceAliasing) {
  std::vector<double> x(129);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * static_cast<double>(i) + 0.001;
  std::vector<double> expect(x);
  for (auto& v : expect) v = std::log(v);
  vecmath::log(x, x, GetParam());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_LE(ulp_diff(x[i], expect[i]), 2.0);
}

TEST_P(ArrayMathTest, AllRoutinesAgreeAcrossWidths) {
  std::vector<double> in(257);
  std::mt19937_64 gen(3);
  std::uniform_real_distribution<double> d(0.01, 5.0);
  for (auto& x : in) x = d(gen);
  auto run = [&](auto fn, vecmath::Width w) {
    std::vector<double> out(in.size());
    fn(std::span<const double>(in), std::span<double>(out), w);
    return out;
  };
  using FnPtr = void (*)(std::span<const double>, std::span<double>, vecmath::Width);
  for (FnPtr fn : {static_cast<FnPtr>(vecmath::exp), static_cast<FnPtr>(vecmath::log),
                   static_cast<FnPtr>(vecmath::erf), static_cast<FnPtr>(vecmath::erfc),
                   static_cast<FnPtr>(vecmath::cnd), static_cast<FnPtr>(vecmath::sqrt)}) {
    auto scalar = run(fn, vecmath::Width::kScalar);
    auto wide = run(fn, GetParam());
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(scalar[i], wide[i]) << i;
  }
}

TEST_P(ArrayMathTest, SinCosArrays) {
  std::vector<double> in(100), s(100), c(100);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0.13 * static_cast<double>(i) - 5.0;
  vecmath::sincos(in, s, c, GetParam());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(s[i], std::sin(in[i]), 2e-15);
    EXPECT_NEAR(c[i], std::cos(in[i]), 2e-15);
  }
}

TEST_P(ArrayMathTest, InverseCndArray) {
  std::vector<double> p(77), x(77);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = (static_cast<double>(i) + 0.5) / 77.0;
  vecmath::inverse_cnd(p, x, GetParam());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(0.5 * std::erfc(-x[i] * 0.7071067811865475244), p[i], 1e-13);
  }
}

// kAuto runs the widest lanes this build compiles, twice as many in float.
TEST(ArrayMath, MaxWidthReportsBuild) {
  EXPECT_EQ(simd::lanes<double>(vecmath::Width::kAuto), simd::kMaxVectorWidth);
  EXPECT_EQ(simd::lanes<float>(vecmath::Width::kAuto), 2 * simd::kMaxVectorWidth);
}

}  // namespace
