// google-benchmark microbenchmarks for the vector math library: per-element
// cost of each transcendental at each width, against libm.

#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include <cmath>
#include <random>

#include "finbench/arch/aligned.hpp"
#include "finbench/vecmath/array_math.hpp"

namespace {

using namespace finbench;

constexpr std::size_t kN = 4096;

arch::AlignedVector<double> inputs(double lo, double hi) {
  arch::AlignedVector<double> v(kN);
  std::mt19937_64 gen(1);
  std::uniform_real_distribution<double> d(lo, hi);
  for (auto& x : v) x = d(gen);
  return v;
}

// The Width whose lane count for element type T the benchmark argument
// names; the widest row runs kAuto.
template <class T>
vecmath::Width width_arg(const benchmark::State& state) {
  if (state.range(0) == 1) return vecmath::Width::kScalar;
  if (state.range(0) == simd::lanes<T>(vecmath::Width::kAvx2)) return vecmath::Width::kAvx2;
  return vecmath::Width::kAuto;
}

void BM_Exp(benchmark::State& state) {
  const auto in = inputs(-30, 30);
  arch::AlignedVector<double> out(kN);
  for (auto _ : state) {
    vecmath::exp(in, out, width_arg<double>(state));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_Exp)->Arg(1)->Arg(4)->Arg(8);

void BM_ExpLibm(benchmark::State& state) {
  const auto in = inputs(-30, 30);
  arch::AlignedVector<double> out(kN);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kN; ++i) out[i] = std::exp(in[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_ExpLibm);

void BM_Log(benchmark::State& state) {
  const auto in = inputs(1e-6, 1e6);
  arch::AlignedVector<double> out(kN);
  for (auto _ : state) {
    vecmath::log(in, out, width_arg<double>(state));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_Log)->Arg(1)->Arg(4)->Arg(8);

void BM_Erf(benchmark::State& state) {
  const auto in = inputs(-6, 6);
  arch::AlignedVector<double> out(kN);
  for (auto _ : state) {
    vecmath::erf(in, out, width_arg<double>(state));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_Erf)->Arg(1)->Arg(4)->Arg(8);

void BM_Cnd(benchmark::State& state) {
  const auto in = inputs(-8, 8);
  arch::AlignedVector<double> out(kN);
  for (auto _ : state) {
    vecmath::cnd(in, out, width_arg<double>(state));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_Cnd)->Arg(1)->Arg(4)->Arg(8);

void BM_InverseCnd(benchmark::State& state) {
  const auto in = inputs(1e-6, 1.0 - 1e-6);
  arch::AlignedVector<double> out(kN);
  for (auto _ : state) {
    vecmath::inverse_cnd(in, out, width_arg<double>(state));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_InverseCnd)->Arg(1)->Arg(4)->Arg(8);

void BM_SinCos(benchmark::State& state) {
  const auto in = inputs(-100, 100);
  arch::AlignedVector<double> s(kN), c(kN);
  for (auto _ : state) {
    vecmath::sincos(in, s, c, width_arg<double>(state));
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_SinCos)->Arg(1)->Arg(4)->Arg(8);

// --- Single precision: same transcendentals at 2x the lane count ---------

arch::AlignedVector<float> inputs_f(float lo, float hi) {
  arch::AlignedVector<float> v(kN);
  std::mt19937 gen(2);
  std::uniform_real_distribution<float> d(lo, hi);
  for (auto& x : v) x = d(gen);
  return v;
}

void BM_ExpF(benchmark::State& state) {
  const auto in = inputs_f(-30, 30);
  arch::AlignedVector<float> out(kN);
  for (auto _ : state) {
    vecmath::expf(in, out, width_arg<float>(state));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_ExpF)->Arg(1)->Arg(8)->Arg(16);

void BM_CndF(benchmark::State& state) {
  const auto in = inputs_f(-8, 8);
  arch::AlignedVector<float> out(kN);
  for (auto _ : state) {
    vecmath::cndf(in, out, width_arg<float>(state));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
}
BENCHMARK(BM_CndF)->Arg(1)->Arg(8)->Arg(16);

}  // namespace

FINBENCH_MICRO_MAIN()
