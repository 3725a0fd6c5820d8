// Tests for the Brownian-bridge kernel (Fig. 6): schedule coefficients,
// exact equivalence of the scalar and SIMD construction variants, and the
// distributional property that makes a bridge a bridge — unconditionally,
// the output is standard Brownian motion, Cov(v(t_i), v(t_j)) = min(t_i, t_j).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "finbench/core/portfolio.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/kernels/brownian.hpp"
#include "finbench/rng/normal.hpp"

namespace {

using namespace finbench;
using namespace finbench::kernels;

TEST(BridgeSchedule, UniformCoefficients) {
  const auto s = brownian::BridgeSchedule::uniform(3, 2.0);
  EXPECT_EQ(s.depth(), 3);
  EXPECT_EQ(s.num_points(), 9u);
  EXPECT_EQ(s.normals_per_path(), 8u);
  EXPECT_DOUBLE_EQ(s.terminal_sig(), std::sqrt(2.0));
  // Uniform grid: midpoints bisect, so w_l = w_r = 1/2 everywhere and
  // sig at level d = sqrt(span_d / 4) with span_d = T / 2^d.
  for (int d = 0; d < 3; ++d) {
    const double span = 2.0 / (1 << d);
    for (std::size_t c = 0; c < (1u << d); ++c) {
      EXPECT_DOUBLE_EQ(s.w_l(d)[c], 0.5);
      EXPECT_DOUBLE_EQ(s.w_r(d)[c], 0.5);
      EXPECT_NEAR(s.sig(d)[c], std::sqrt(span / 4.0), 1e-15);
    }
  }
}

TEST(BridgeSchedule, NonUniformTimes) {
  const std::vector<double> times = {0.0, 0.1, 0.5, 0.7, 2.0};
  const auto s = brownian::BridgeSchedule::from_times(times);
  EXPECT_EQ(s.depth(), 2);
  // Level 0: midpoint t=0.5 between 0 and 2.
  EXPECT_DOUBLE_EQ(s.w_l(0)[0], (2.0 - 0.5) / 2.0);
  EXPECT_DOUBLE_EQ(s.w_r(0)[0], 0.5 / 2.0);
  EXPECT_NEAR(s.sig(0)[0], std::sqrt(0.5 * 1.5 / 2.0), 1e-15);
  // Level 1, segment 1: midpoint 0.7 between 0.5 and 2.0.
  EXPECT_DOUBLE_EQ(s.w_l(1)[1], (2.0 - 0.7) / 1.5);
  EXPECT_NEAR(s.sig(1)[1], std::sqrt(0.2 * 1.3 / 1.5), 1e-15);
}

TEST(BridgeSchedule, RejectsNonPowerOfTwo) {
  const std::vector<double> bad = {0.0, 1.0, 2.0, 3.0};  // 3 intervals
  EXPECT_THROW(brownian::BridgeSchedule::from_times(bad), std::invalid_argument);
}

TEST(BridgeSchedule, MinimalDepthZero) {
  const std::vector<double> t2 = {0.0, 1.0};
  const auto s = brownian::BridgeSchedule::from_times(t2);
  EXPECT_EQ(s.depth(), 0);
  EXPECT_EQ(s.num_points(), 2u);
  EXPECT_EQ(s.normals_per_path(), 1u);
}

arch::AlignedVector<double> make_normals(std::size_t n, std::uint64_t seed = 42) {
  arch::AlignedVector<double> z(n);
  rng::NormalStream stream(seed);
  stream.fill(z);
  return z;
}

TEST(BrownianBridge, ReferenceEndpointsAreExact) {
  const auto sched = brownian::BridgeSchedule::uniform(4, 1.0);
  const std::size_t nsim = 10;
  const auto z = make_normals(nsim * sched.normals_per_path());
  std::vector<double> out(nsim * sched.num_points());
  brownian::construct_reference(sched, z, nsim, out);
  for (std::size_t s = 0; s < nsim; ++s) {
    EXPECT_EQ(out[0 * nsim + s], 0.0);  // pinned start
    // Terminal = sqrt(T) * first normal of the path.
    EXPECT_DOUBLE_EQ(out[(sched.num_points() - 1) * nsim + s],
                     z[s * sched.normals_per_path()] * sched.terminal_sig());
  }
}

class BrownianWidthTest : public ::testing::TestWithParam<brownian::Width> {};
INSTANTIATE_TEST_SUITE_P(Widths, BrownianWidthTest,
                         ::testing::Values(brownian::Width::kScalar, brownian::Width::kAvx2,
                                           brownian::Width::kAvx512, brownian::Width::kAuto));

TEST_P(BrownianWidthTest, IntermediateMatchesReference) {
  const auto sched = brownian::BridgeSchedule::uniform(5, 1.0);
  for (std::size_t nsim : {1UL, 4UL, 7UL, 8UL, 9UL, 40UL}) {
    const auto z = make_normals(nsim * sched.normals_per_path(), nsim);
    std::vector<double> ref(nsim * sched.num_points()), simd(ref.size());
    brownian::construct_reference(sched, z, nsim, ref);
    const auto blocked = brownian::lane_block_normals(z, nsim, sched.normals_per_path(),
                                                      finbench::simd::lanes<double>(GetParam()));
    brownian::construct_intermediate(sched, blocked, nsim, simd, GetParam());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(simd[i], ref[i], 1e-12 * std::max(1.0, std::fabs(ref[i])))
          << "nsim=" << nsim << " i=" << i;
    }
  }
}

TEST(BrownianBridge, LaneBlockingIsAPermutation) {
  const std::size_t nsim = 12, per = 8;
  arch::AlignedVector<double> z(nsim * per);
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = static_cast<double>(i);
  const auto blocked = brownian::lane_block_normals(z, nsim, per, 4);
  std::vector<double> sorted_a(z.begin(), z.end()), sorted_b(blocked.begin(), blocked.end());
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  EXPECT_EQ(sorted_a, sorted_b);
  // Spot-check the mapping: path s, normal i lands at group layout slot.
  EXPECT_EQ(blocked[0 * per * 4 + 3 * 4 + 2], z[2 * per + 3]);  // g=0, l=2, i=3
}

// The unconditional law of bridge output is Brownian motion. Check
// Var(v(t)) = t and Cov(v(s), v(t)) = min(s, t) on sampled pairs.
TEST(BrownianBridge, CovarianceStructure) {
  const int depth = 4;
  const auto sched = brownian::BridgeSchedule::uniform(depth, 1.0);
  const std::size_t nsim = 60000;
  std::vector<double> out(nsim * sched.num_points());
  brownian::construct_advanced_interleaved(sched, /*seed=*/7, nsim, out);

  const auto& times = sched.times();
  auto column = [&](std::size_t c) { return out.data() + c * nsim; };
  const double tol = 5.0 / std::sqrt(static_cast<double>(nsim));  // ~5 sigma

  for (std::size_t c : {1UL, 4UL, 8UL, 13UL, 16UL}) {
    const double* v = column(c);
    double var = 0;
    for (std::size_t s = 0; s < nsim; ++s) var += v[s] * v[s];
    var /= nsim;
    EXPECT_NEAR(var, times[c], 3 * tol * std::max(0.2, times[c])) << "c=" << c;
  }
  const std::size_t pairs[][2] = {{2, 9}, {4, 12}, {1, 16}, {7, 8}};
  for (auto& pr : pairs) {
    const double* a = column(pr[0]);
    const double* b = column(pr[1]);
    double cov = 0;
    for (std::size_t s = 0; s < nsim; ++s) cov += a[s] * b[s];
    cov /= nsim;
    EXPECT_NEAR(cov, std::min(times[pr[0]], times[pr[1]]), 5 * tol)
        << pr[0] << "," << pr[1];
  }
}

// Increments of the reconstructed path must be independent with variance dt.
TEST(BrownianBridge, IncrementsAreWhite) {
  const auto sched = brownian::BridgeSchedule::uniform(5, 1.0);
  const std::size_t nsim = 40000;
  std::vector<double> out(nsim * sched.num_points());
  brownian::construct_advanced_interleaved(sched, 3, nsim, out);
  const double dt = 1.0 / static_cast<double>(sched.num_points() - 1);
  // Adjacent increments: corr should vanish.
  double c01 = 0, v0 = 0, v1 = 0;
  for (std::size_t s = 0; s < nsim; ++s) {
    const double d0 = out[1 * nsim + s] - out[0 * nsim + s];
    const double d1 = out[2 * nsim + s] - out[1 * nsim + s];
    c01 += d0 * d1;
    v0 += d0 * d0;
    v1 += d1 * d1;
  }
  EXPECT_NEAR(v0 / nsim, dt, 6 * dt / std::sqrt(static_cast<double>(nsim)) * 3);
  EXPECT_NEAR(v1 / nsim, dt, 6 * dt / std::sqrt(static_cast<double>(nsim)) * 3);
  EXPECT_NEAR(c01 / std::sqrt(v0 * v1), 0.0, 0.03);
}

TEST(BrownianBridge, InterleavedIsReproducible) {
  const auto sched = brownian::BridgeSchedule::uniform(4, 1.0);
  const std::size_t nsim = 100;
  std::vector<double> a(nsim * sched.num_points()), b(a.size());
  brownian::construct_advanced_interleaved(sched, 5, nsim, a);
  brownian::construct_advanced_interleaved(sched, 5, nsim, b);
  EXPECT_EQ(a, b);
  std::vector<double> c(a.size());
  brownian::construct_advanced_interleaved(sched, 6, nsim, c);
  EXPECT_NE(a, c);
}

TEST(BrownianBridge, FusedAverageMatchesInterleavedPaths) {
  const auto sched = brownian::BridgeSchedule::uniform(4, 1.0);
  for (std::size_t nsim : {8UL, 17UL, 64UL}) {
    std::vector<double> paths(nsim * sched.num_points());
    brownian::construct_advanced_interleaved(sched, 9, nsim, paths);
    std::vector<double> avg(nsim);
    brownian::construct_advanced_fused(sched, 9, nsim, avg);
    for (std::size_t s = 0; s < nsim; ++s) {
      double want = 0;
      for (std::size_t c = 1; c < sched.num_points(); ++c) want += paths[c * nsim + s];
      want /= static_cast<double>(sched.num_points() - 1);
      EXPECT_NEAR(avg[s], want, 1e-12) << "nsim=" << nsim << " s=" << s;
    }
  }
}

// The RNG-interleaved construction draws its own normals, so it agrees
// with the reference in distribution, not element by element: over 8192
// paths at depth 6 the batch mean, and each point's mean, stay within the
// 0.08 band (about 5 standard errors at t = 1).
TEST(BrownianBridge, InterleavedAgreesWithReferenceInMean) {
  const auto sched = brownian::BridgeSchedule::uniform(6, 1.0);
  const std::size_t nsim = 8192, np = sched.num_points();
  arch::AlignedVector<double> z(nsim * sched.normals_per_path());
  rng::NormalStream(1).fill(z);
  std::vector<double> want(nsim * np), got(nsim * np);
  brownian::construct_reference(sched, z, nsim, want);
  brownian::construct_advanced_interleaved(sched, 1, nsim, got);
  const auto mean = [](const double* x, std::size_t n) {
    return std::accumulate(x, x + n, 0.0) / static_cast<double>(n);
  };
  EXPECT_LE(std::fabs(mean(got.data(), got.size()) - mean(want.data(), want.size())), 0.08);
  for (std::size_t c = 0; c < np; ++c) {
    EXPECT_LE(std::fabs(mean(got.data() + c * nsim, nsim) - mean(want.data() + c * nsim, nsim)),
              0.08)
        << "point " << c;
  }
}

TEST(BrownianBridge, RaggedTailGroupHandled) {
  // nsim not a multiple of the SIMD width exercises the ragged-group path.
  const auto sched = brownian::BridgeSchedule::uniform(3, 2.0);
  const std::size_t nsim = 13;
  std::vector<double> out(nsim * sched.num_points(), -999.0);
  brownian::construct_advanced_interleaved(sched, 2, nsim, out);
  for (double v : out) EXPECT_NE(v, -999.0);
  for (std::size_t s = 0; s < nsim; ++s) EXPECT_EQ(out[s], 0.0);  // pinned start
}

// Depths 30 to 62 pass the check but ask the allocator for up to 2^62
// doubles, so only the rejected edges run here.
TEST(BrownianBridge, DepthOutsideRangeIsRejected) {
  for (int depth : {-1, 64}) {
    EXPECT_THROW(brownian::BridgeSchedule::uniform(depth, 1.0), std::invalid_argument) << depth;
    engine::PricingRequest req;
    req.kernel_id = "brownian.reference.scalar";
    req.portfolio = core::paths_view(8);
    req.bridge_depth = depth;
    const engine::PricingResult res = engine::Engine::shared().price(req);
    EXPECT_FALSE(res.status.ok()) << depth;
    EXPECT_NE(res.status.to_string().find("depth"), std::string::npos)
        << res.status.to_string();
  }
}

TEST(BrownianBridge, FlopsModel) {
  EXPECT_DOUBLE_EQ(brownian::flops_per_path(6), 5.0 * 64);
}

}  // namespace
