// tests/float_lanes.hpp
//
// Parameter for the single-precision width suites. A case is the float
// lane count it asks for, so its name reads that count: each Width runs
// twice its double lanes in float (kAvx2 runs 8, kAvx512 16), kScalar 1,
// and kAuto, case 0, the widest compiled in.

#pragma once

#include "finbench/simd/width.hpp"

namespace finbench::test {

enum class FloatLanes { kAuto = 0, kScalar = 1, kAvx2 = 8, kAvx512 = 16 };

inline constexpr FloatLanes kAllFloatLanes[] = {FloatLanes::kScalar, FloatLanes::kAvx2,
                                                FloatLanes::kAvx512, FloatLanes::kAuto};

// The Width that asks for `l`: Width's values are the double lane counts.
constexpr simd::Width width_of(FloatLanes l) {
  const int n = static_cast<int>(l);
  return static_cast<simd::Width>(n > 1 ? n / 2 : n);
}

static_assert(width_of(FloatLanes::kScalar) == simd::Width::kScalar);
static_assert(width_of(FloatLanes::kAvx2) == simd::Width::kAvx2);
static_assert(width_of(FloatLanes::kAvx512) == simd::Width::kAvx512);
static_assert(width_of(FloatLanes::kAuto) == simd::Width::kAuto);
static_assert(simd::lanes<float>(width_of(FloatLanes::kAvx2)) == 8);

}  // namespace finbench::test
