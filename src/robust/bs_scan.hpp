// Internal to src/robust: the pieces of the branch-free whole-range tests
// that open the Black–Scholes sanitizer and output-guard scans. Both test
// IEEE bit patterns with integer arithmetic, so the loops vectorize as
// plain OR-reductions and the verdict does not depend on the thread's
// FTZ/DAZ mode. Not installed.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "finbench/core/option.hpp"

namespace finbench::robust::detail {

// Nonzero when bits(x) - lo > range as unsigned integers. With lo =
// bits(a), range = bits(b) - bits(a) and 0 < a <= b < inf this is "x
// outside [a, b]": positive doubles order like their bits, while zero,
// negatives (sign bit set), values below a, +Inf and NaN all land
// outside. Floats widen exactly.
inline std::uint64_t outside(double x, std::uint64_t lo, std::uint64_t range) {
  return static_cast<std::uint64_t>(std::bit_cast<std::uint64_t>(x) - lo > range);
}

// The AOS records copied out as their object representation, 8 records
// (40 doubles) at a time, each position tested as (bits & mask) - lo >
// range: the strided record fields become unit-stride vector lanes. A
// position left at mask = lo = range = 0 always passes.
struct AosPattern {
  static constexpr std::size_t kFields = 5, kGroup = 8, kWidth = kFields * kGroup;
  std::uint64_t mask[kWidth] = {}, lo[kWidth] = {}, range[kWidth] = {};

  // Test record field `field` (0 spot, 1 strike, 2 years, 3 call, 4 put).
  void set(std::size_t field, std::uint64_t m, std::uint64_t l, std::uint64_t r) {
    for (std::size_t k = field; k < kWidth; k += kFields) {
      mask[k] = m;
      lo[k] = l;
      range[k] = r;
    }
  }

  bool clean(const core::BsAosView& v) const {
    static_assert(sizeof(core::BsOptionAos) == kFields * sizeof(double));
    const core::BsOptionAos* o = v.options.data();
    const std::size_t n = v.size();
    std::uint64_t x[kWidth];  // the object representation of kGroup records
    std::uint64_t bad = 0;
    std::size_t g = 0;
    for (; g + kGroup <= n; g += kGroup) {
      std::memcpy(x, o + g, sizeof x);
      for (std::size_t k = 0; k < kWidth; ++k) {
        bad |= static_cast<std::uint64_t>((x[k] & mask[k]) - lo[k] > range[k]);
      }
    }
    if (g < n) {
      std::memcpy(x, o + g, (n - g) * sizeof(core::BsOptionAos));
      for (std::size_t k = 0; k < (n - g) * kFields; ++k) {
        bad |= static_cast<std::uint64_t>((x[k] & mask[k]) - lo[k] > range[k]);
      }
    }
    return bad == 0;
  }
};

}  // namespace finbench::robust::detail
