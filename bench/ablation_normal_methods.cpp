// Ablation: normal-deviate transform choice (ICDF vs Box–Muller vs
// ziggurat). Table II reports one normal-RNG rate; this sweep shows how the
// method choice moves it and why the SIMD-friendly transforms win on wide
// machines even though the scalar ziggurat does the least arithmetic.

#include <cstdio>

#include "bench_common.hpp"
#include "finbench/arch/aligned.hpp"
#include "finbench/rng/normal.hpp"
#include "finbench/simd/width.hpp"

using namespace finbench;
using namespace finbench::rng;

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const std::size_t n = opts.full ? (1u << 24) : (1u << 22);
  arch::AlignedVector<double> buf(n);

  std::printf("\n===============================================================\n");
  std::printf("Ablation: normal transform methods (%zu deviates per run)\n", n);
  std::printf("===============================================================\n");

  double icdf_rate = 0, zig_rate = 0;
  struct Entry {
    const char* name;
    NormalMethod method;
  };
  for (const Entry e : {Entry{"ICDF (vectorized inverse cnd)", NormalMethod::kIcdf},
                        Entry{"Box-Muller (vectorized sincos)", NormalMethod::kBoxMuller},
                        Entry{"Ziggurat (scalar rejection)", NormalMethod::kZiggurat}}) {
    const double rate = bench::items_per_sec("normal.rate", n, opts.reps, [&] {
      NormalStream s(1, 0, e.method);
      s.fill(buf);
    });
    std::printf("  %-34s %12.3f M normals/s\n", e.name, rate / 1e6);
    if (e.method == NormalMethod::kIcdf) icdf_rate = rate;
    if (e.method == NormalMethod::kZiggurat) zig_rate = rate;
  }

  // Uniform baseline for reference (the transform-free cost floor).
  const double uni = bench::items_per_sec("normal.uni", n, opts.reps, [&] {
    Philox4x32 g(1, 0);
    g.generate_u01(buf);
  });
  std::printf("  %-34s %12.3f M uniforms/s\n", "uniform baseline (Philox u01)", uni / 1e6);
  std::printf("  [%s] vectorized ICDF beats the scalar ziggurat at width %d\n",
              icdf_rate > zig_rate ? "PASS" : "FAIL", finbench::simd::kMaxVectorWidth);
  return 0;
}
