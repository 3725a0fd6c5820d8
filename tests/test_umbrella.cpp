// Compile-and-smoke test for the umbrella header: every module must be
// reachable through a single include, and one representative call per
// namespace must work.

#include <gtest/gtest.h>

#include "finbench/finbench.hpp"

namespace {

using namespace finbench;

TEST(Umbrella, EveryModuleReachable) {
  // simd / vecmath
  const simd::Vec<double, 4> v(2.0);
  EXPECT_DOUBLE_EQ(hsum(v), 8.0);
  EXPECT_NEAR(vecmath::exp(simd::Vec<double, 1>(1.0)).v, 2.718281828459045, 1e-14);

  // rng
  rng::Philox4x32 gen(1, 2);
  EXPECT_GE(gen.next_u01(), 0.0);
  rng::Halton halton(2);
  double pt[2];
  halton.next(pt);
  EXPECT_DOUBLE_EQ(pt[0], 0.5);

  // arch
  EXPECT_GE(arch::num_threads(), 1);
  EXPECT_GT(arch::snb_ep().dp_gflops, 0.0);

  // core
  core::OptionSpec o;
  EXPECT_GT(core::black_scholes_price(o), 0.0);

  // kernels (one call per module)
  EXPECT_GT(kernels::binomial::price_one_reference(o, 64), 0.0);
  EXPECT_GT(kernels::lattice::price_leisen_reimer(o, 51), 0.0);

  // harness
  harness::Report report("umbrella", "u");
  report.add_check("ok", true);
  EXPECT_EQ(report.failed_checks(), 0);
}

}  // namespace
