// finbench/vecmath/array_math.hpp
//
// Array-level math: the library's substitute for Intel MKL VML, which the
// paper's "Advanced (Using VML)" Black–Scholes variant calls into (Fig. 4).
// Each routine applies a transcendental to a whole array with a SIMD main
// loop and a scalar tail, optionally at a forced vector width so benchmarks
// can compare the 4-wide (SNB-EP-class) and 8-wide (KNC-class) paths.

#pragma once

#include <cstddef>
#include <span>

#include "finbench/simd/width.hpp"

namespace finbench::vecmath {

// Vector-width selection for the array routines (and for kernels); the
// float routines run twice the lanes at each width.
using simd::Width;

// out[i] = f(in[i]); in and out may alias exactly (in == out) but must not
// partially overlap. All routines are thread-safe and allocation-free.
void exp(std::span<const double> in, std::span<double> out, Width w = Width::kAuto);
void log(std::span<const double> in, std::span<double> out, Width w = Width::kAuto);
void erf(std::span<const double> in, std::span<double> out, Width w = Width::kAuto);
void erfc(std::span<const double> in, std::span<double> out, Width w = Width::kAuto);
void cnd(std::span<const double> in, std::span<double> out, Width w = Width::kAuto);
void inverse_cnd(std::span<const double> in, std::span<double> out, Width w = Width::kAuto);
void sincos(std::span<const double> in, std::span<double> sin_out, std::span<double> cos_out,
            Width w = Width::kAuto);
void sqrt(std::span<const double> in, std::span<double> out, Width w = Width::kAuto);

// Single-precision array routines (same aliasing rules): 8 float lanes at
// kAvx2, 16 at kAvx512 (8 without AVX-512).
void expf(std::span<const float> in, std::span<float> out, Width w = Width::kAuto);
void logf(std::span<const float> in, std::span<float> out, Width w = Width::kAuto);
void erff(std::span<const float> in, std::span<float> out, Width w = Width::kAuto);
void cndf(std::span<const float> in, std::span<float> out, Width w = Width::kAuto);

}  // namespace finbench::vecmath
