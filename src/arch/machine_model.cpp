#include "finbench/arch/machine_model.hpp"

#include <algorithm>

#include "finbench/arch/aligned.hpp"
#include "finbench/arch/timing.hpp"
#include "finbench/arch/topology.hpp"

namespace finbench::arch {

MachineModel snb_ep() {
  MachineModel m;
  m.name = "SNB-EP (Xeon E5-2680, modeled from Table I)";
  m.sockets = 2;
  m.cores = 8;
  m.smt = 2;
  m.ghz = 2.7;
  m.simd_dp = 4;  // 256-bit AVX
  m.dp_gflops = 346.0;
  m.sp_gflops = 691.0;
  m.bw_gbs = 76.0;
  m.l1_kb = 32;
  m.l2_kb = 256;
  m.l3_kb = 20480;
  return m;
}

MachineModel knc() {
  MachineModel m;
  m.name = "KNC (Xeon Phi, modeled from Table I)";
  m.sockets = 1;
  m.cores = 60;
  m.smt = 4;
  m.ghz = 1.09;
  m.simd_dp = 8;  // 512-bit
  m.dp_gflops = 1063.0;
  m.sp_gflops = 2127.0;
  m.bw_gbs = 150.0;
  m.l1_kb = 32;
  m.l2_kb = 512;
  m.l3_kb = 0;
  return m;
}

MachineModel host() {
  const CpuFeatures feats = detect_cpu_features();
  const CacheInfo caches = detect_caches();
  MachineModel m;
  m.name = feats.brand.empty() ? "host" : feats.brand;
  m.sockets = 1;
  m.cores = logical_cpus();
  m.smt = 1;
  m.ghz = cpu_ghz() > 0 ? cpu_ghz() : 2.0;
  m.simd_dp = feats.avx512f ? 8 : (feats.avx2 ? 4 : 1);
  // Peak: lanes x 2 (FMA) x 2 (dual FMA ports, typical for this class).
  const double flops_per_cycle = m.simd_dp * (feats.fma ? 2.0 : 1.0) * 2.0;
  m.dp_gflops = m.cores * m.ghz * flops_per_cycle;
  m.sp_gflops = 2 * m.dp_gflops;
  m.bw_gbs = stream_bandwidth_gbs();
  m.l1_kb = caches.l1d / 1024.0;
  m.l2_kb = caches.l2 / 1024.0;
  m.l3_kb = caches.l3 / 1024.0;
  return m;
}

double stream_bandwidth_gbs() {
  static const double memoized = [] {
    // Mini-STREAM triad: a[i] = b[i] + s*c[i] over arrays >> LLC.
    const std::size_t n = 1 << 24;  // 16M doubles x 3 arrays = 384 MB
    AlignedVector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0;
    // Reference STREAM is an OpenMP loop, so the triad stays one: the only
    // OpenMP region in finbench (everything else runs on the engine pool).
    auto triad = [&] {
      const std::ptrdiff_t blocks = static_cast<std::ptrdiff_t>(n >> 16);
#pragma omp parallel for schedule(static)
      for (std::ptrdiff_t blk = 0; blk < blocks; ++blk) {
        for (std::ptrdiff_t i = blk << 16; i < (blk + 1) << 16; ++i) a[i] = b[i] + s * c[i];
      }
    };
    triad();  // warm up / page in
    const double secs = best_of(3, triad);
    do_not_optimize(a[n / 2]);
    // Triad moves 3 arrays (2 reads + 1 write, no RFO assumed).
    return 3.0 * n * sizeof(double) / secs / 1e9;
  }();
  return memoized;
}

RooflineBound roofline(const MachineModel& m, double flops_per_item, double bytes_per_item) {
  RooflineBound b{};
  b.compute_items_per_sec =
      flops_per_item > 0 ? m.dp_gflops * 1e9 / flops_per_item : 1e30;
  b.bandwidth_items_per_sec =
      bytes_per_item > 0 ? m.bw_gbs * 1e9 / bytes_per_item : 1e30;
  b.compute_bound = b.compute_items_per_sec <= b.bandwidth_items_per_sec;
  return b;
}

double project_items_per_sec(const MachineModel& m, double efficiency, double flops_per_item,
                             double bytes_per_item) {
  return efficiency * roofline(m, flops_per_item, bytes_per_item).items_per_sec();
}

}  // namespace finbench::arch
