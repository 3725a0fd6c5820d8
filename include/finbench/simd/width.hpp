// finbench/simd/width.hpp
//
// Where a requested vector width becomes a lane count. The paper writes
// each kernel once over F64vec4 / F64vec8 and measures that one code
// 4-wide on SNB-EP and 8-wide on KNC; here every kernel and array routine
// is a template over its lane count, and its entry point hands that
// template to with_lanes<T>(w, f), which picks the count for element
// type T in this build and calls f with it as a compile-time constant.
//
// The build decides which widths exist (-DFINBENCH_AVX512, default ON);
// nothing is detected at runtime.

#pragma once

#include <type_traits>

namespace finbench::simd {

// Widest double lane count compiled into this build: 8 with AVX-512,
// else 4. Float paths run twice as many lanes.
inline constexpr int kMaxVectorWidth =
#if defined(FINBENCH_HAVE_AVX512)
    8;
#else
    4;
#endif

// Requested width; the enumerator values are the double lane counts.
// Float entry points take the same Width and run twice the lanes.
enum class Width {
  kScalar = 1,  // 1 lane: the reference instantiation
  kAvx2 = 4,    // 256-bit (SNB-EP-class): 4 double / 8 float lanes
  kAvx512 = 8,  // 512-bit (KNC-class): 8 / 16 lanes; 4 / 8 without AVX-512
  kAuto = 0,    // widest compiled in: kMaxVectorWidth double lanes
};

// Calls f(std::integral_constant<int, L>{}) with L the lane count `w`
// means for element type T, and returns what f returns.
template <class T, class F>
constexpr decltype(auto) with_lanes(Width w, F&& f) {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, float>);
  constexpr int kPerDouble = static_cast<int>(sizeof(double) / sizeof(T));
  switch (w) {
    case Width::kScalar: return f(std::integral_constant<int, 1>{});
    case Width::kAvx2: return f(std::integral_constant<int, 4 * kPerDouble>{});
    case Width::kAvx512:
    case Width::kAuto: break;
  }
  return f(std::integral_constant<int, kMaxVectorWidth * kPerDouble>{});
}

// The lane count `w` means for element type T in this build.
template <class T>
constexpr int lanes(Width w) noexcept {
  return with_lanes<T>(w, [](auto n) { return n.value; });
}

}  // namespace finbench::simd
