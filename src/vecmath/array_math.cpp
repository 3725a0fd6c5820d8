#include "finbench/vecmath/array_math.hpp"

#include <cassert>

#include "finbench/vecmath/vecmath.hpp"
#include "finbench/vecmath/vecmathf.hpp"

namespace finbench::vecmath {

namespace {

// Apply a generic lambda (templated on Vec type) over an array at W lanes.
template <class T, int W, class F>
void apply_width(std::span<const T> in, std::span<T> out, F&& f) {
  assert(in.size() == out.size());
  using V = simd::Vec<T, W>;
  const std::size_t n = in.size();
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) f(V::loadu(in.data() + i)).storeu(out.data() + i);
  }
  for (; i < n; ++i) out[i] = f(simd::Vec<T, 1>(in[i])).v;
}

template <class T, class F>
void apply(std::span<const T> in, std::span<T> out, Width w, F&& f) {
  simd::with_lanes<T>(w, [&](auto L) { apply_width<T, L>(in, out, f); });
}

}  // namespace

void exp(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::exp(x); });
}
void log(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::log(x); });
}
void erf(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::erf(x); });
}
void erfc(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::erfc(x); });
}
void cnd(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::cnd(x); });
}
void inverse_cnd(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::inverse_cnd(x); });
}
void sqrt(std::span<const double> in, std::span<double> out, Width w) {
  apply(in, out, w, [](auto x) { return simd::sqrt(x); });
}

namespace {

template <int W>
void sincos_width(std::span<const double> in, std::span<double> s, std::span<double> c) {
  assert(in.size() == s.size() && in.size() == c.size());
  using V = simd::Vec<double, W>;
  const std::size_t n = in.size();
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) {
      V sv, cv;
      vecmath::sincos(V::loadu(in.data() + i), sv, cv);
      sv.storeu(s.data() + i);
      cv.storeu(c.data() + i);
    }
  }
  for (; i < n; ++i) {
    simd::Vec<double, 1> sv, cv;
    vecmath::sincos(simd::Vec<double, 1>(in[i]), sv, cv);
    s[i] = sv.v;
    c[i] = cv.v;
  }
}

}  // namespace

void sincos(std::span<const double> in, std::span<double> sin_out, std::span<double> cos_out,
            Width w) {
  simd::with_lanes<double>(w, [&](auto L) { sincos_width<L>(in, sin_out, cos_out); });
}

// --- Single precision -----------------------------------------------------

void expf(std::span<const float> in, std::span<float> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::expf(x); });
}
void logf(std::span<const float> in, std::span<float> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::logf(x); });
}
void erff(std::span<const float> in, std::span<float> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::erff(x); });
}
void cndf(std::span<const float> in, std::span<float> out, Width w) {
  apply(in, out, w, [](auto x) { return vecmath::cndf(x); });
}

}  // namespace finbench::vecmath
