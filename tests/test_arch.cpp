// Tests for the platform layer: aligned storage, the thread count, timers,
// CPU detection, machine models (Table I numbers), and roofline math.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "finbench/arch/aligned.hpp"
#include "finbench/arch/machine_model.hpp"
#include "finbench/arch/parallel.hpp"
#include "finbench/arch/timing.hpp"
#include "finbench/arch/topology.hpp"

namespace {

using namespace finbench::arch;

TEST(Aligned, VectorDataIsCacheLineAligned) {
  for (int rep = 0; rep < 16; ++rep) {
    AlignedVector<double> v(17 + rep);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  }
}

TEST(Aligned, VectorBehavesLikeVector) {
  AlignedVector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_DOUBLE_EQ(std::accumulate(v.begin(), v.end(), 0.0), 999.0 * 1000.0 / 2.0);
  v.resize(10);
  EXPECT_EQ(v.size(), 10u);
  AlignedVector<double> copy = v;
  EXPECT_EQ(copy, v);
}

TEST(Aligned, AllocatorEquality) {
  AlignedAllocator<double> a;
  AlignedAllocator<int> b;
  EXPECT_TRUE(a == b);
}

TEST(Aligned, ZeroSizedAllocation) {
  AlignedAllocator<double> a;
  EXPECT_EQ(a.allocate(0), nullptr);
}

TEST(Parallel, NumThreadsPositive) { EXPECT_GE(num_threads(), 1); }

TEST(Parallel, NumThreadsIsCachedAndOverridable) {
  const int before = num_threads();
  // The cached value must be stable across calls ...
  EXPECT_EQ(num_threads(), before);
  // ... and stay coherent with an explicit override.
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(before);
  EXPECT_EQ(num_threads(), before);
}

TEST(Timing, WallTimerMeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  (void)sink;
}

TEST(Timing, BestOfReturnsMinimum) {
  int calls = 0;
  const double best = best_of(5, [&] { ++calls; });
  EXPECT_EQ(calls, 5);
  EXPECT_GE(best, 0.0);
}

TEST(Topology, DetectsSaneFeatures) {
  const CpuFeatures f = detect_cpu_features();
  // This library is compiled with AVX2+FMA, so the host must have them.
  EXPECT_TRUE(f.avx2);
  EXPECT_TRUE(f.fma);
#if defined(FINBENCH_HAVE_AVX512)
  EXPECT_TRUE(f.avx512f);
#endif
  EXPECT_FALSE(f.brand.empty());
}

TEST(Topology, CachesDetected) {
  const CacheInfo c = detect_caches();
  EXPECT_GE(c.l1d, 16u * 1024);
  EXPECT_LE(c.l1d, 1024u * 1024);
  EXPECT_GE(c.l2, 128u * 1024);
}

TEST(Topology, LogicalCpusPositive) { EXPECT_GE(logical_cpus(), 1); }

// --- Machine models: the paper's Table I, verbatim ---------------------------

TEST(MachineModel, SnbEpMatchesTableI) {
  const MachineModel m = snb_ep();
  EXPECT_EQ(m.sockets * m.cores, 16);
  EXPECT_EQ(m.smt, 2);
  EXPECT_DOUBLE_EQ(m.ghz, 2.7);
  EXPECT_EQ(m.simd_dp, 4);
  EXPECT_DOUBLE_EQ(m.dp_gflops, 346.0);
  EXPECT_DOUBLE_EQ(m.sp_gflops, 691.0);
  EXPECT_DOUBLE_EQ(m.bw_gbs, 76.0);
  EXPECT_DOUBLE_EQ(m.l3_kb, 20480.0);
  EXPECT_EQ(m.total_threads(), 32);
}

TEST(MachineModel, KncMatchesTableI) {
  const MachineModel m = knc();
  EXPECT_EQ(m.cores, 60);
  EXPECT_EQ(m.smt, 4);
  EXPECT_DOUBLE_EQ(m.ghz, 1.09);
  EXPECT_EQ(m.simd_dp, 8);
  EXPECT_DOUBLE_EQ(m.dp_gflops, 1063.0);
  EXPECT_DOUBLE_EQ(m.bw_gbs, 150.0);
  EXPECT_DOUBLE_EQ(m.l3_kb, 0.0);
  EXPECT_EQ(m.total_threads(), 240);
}

TEST(MachineModel, PaperPeakRatioHolds) {
  // Sec. III: "in terms of peak compute, KNC is 3.2x faster" (60/16 x
  // 512/256 x 1.09/2.7 ~ 3.03; Table I flops give 1063/346 ~ 3.07).
  EXPECT_NEAR(knc().dp_gflops / snb_ep().dp_gflops, 3.07, 0.1);
  // Bandwidth ratio ~2x (150/76).
  EXPECT_NEAR(knc().bw_gbs / snb_ep().bw_gbs, 1.97, 0.05);
}

TEST(Roofline, ComputeBoundKernel) {
  const MachineModel m = snb_ep();
  // 1000 flops, 8 bytes per item: arithmetic intensity 125 -> compute bound.
  const RooflineBound b = roofline(m, 1000.0, 8.0);
  EXPECT_TRUE(b.compute_bound);
  EXPECT_DOUBLE_EQ(b.items_per_sec(), 346.0e9 / 1000.0);
}

TEST(Roofline, BandwidthBoundKernel) {
  const MachineModel m = snb_ep();
  // 50 flops over 40 bytes: arithmetic intensity 1.25 -> bandwidth bound.
  const RooflineBound b = roofline(m, 50.0, 40.0);
  EXPECT_FALSE(b.compute_bound);
  EXPECT_DOUBLE_EQ(b.items_per_sec(), 76.0e9 / 40.0);
}

TEST(Roofline, ZeroBytesMeansPureCompute) {
  const RooflineBound b = roofline(knc(), 100.0, 0.0);
  EXPECT_TRUE(b.compute_bound);
  EXPECT_DOUBLE_EQ(b.items_per_sec(), 1063.0e9 / 100.0);
}

TEST(Roofline, ProjectionScalesWithEfficiency) {
  const MachineModel m = knc();
  const double full = project_items_per_sec(m, 1.0, 100.0, 0.0);
  const double half = project_items_per_sec(m, 0.5, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(half, 0.5 * full);
}

TEST(Roofline, PaperBlackScholesBoundReproduced) {
  // Sec. IV-A3: "the bandwidth-bound performance is B/40 options per
  // second". SNB-EP: 76 GB/s / 40 B = 1.9 Gopt/s; KNC: 150/40 = 3.75.
  EXPECT_DOUBLE_EQ(roofline(snb_ep(), 200.0, 40.0).bandwidth_items_per_sec, 1.9e9);
  EXPECT_DOUBLE_EQ(roofline(knc(), 200.0, 40.0).bandwidth_items_per_sec, 3.75e9);
}

TEST(MachineModel, HostDetectionIsConsistent) {
  const MachineModel m = host();
  EXPECT_GE(m.cores, 1);
  EXPECT_GT(m.ghz, 0.0);
  EXPECT_GT(m.dp_gflops, 0.0);
  EXPECT_GT(m.bw_gbs, 0.0);
  EXPECT_GE(m.simd_dp, 4);  // build requires AVX2
}

TEST(Stream, BandwidthMemoizedAndPlausible) {
  const double b1 = stream_bandwidth_gbs();
  const double b2 = stream_bandwidth_gbs();
  EXPECT_EQ(b1, b2);          // memoized
  EXPECT_GT(b1, 0.5);         // even the weakest host beats 0.5 GB/s
  EXPECT_LT(b1, 10000.0);     // and nothing hits 10 TB/s
}

}  // namespace
