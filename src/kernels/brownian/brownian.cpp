#include "finbench/kernels/brownian.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "finbench/simd/vec.hpp"

namespace finbench::kernels::brownian {

// --- Schedule ---------------------------------------------------------------

BridgeSchedule BridgeSchedule::uniform(int depth, double total_time) {
  if (depth < 0 || depth >= 63) {
    throw std::invalid_argument("BridgeSchedule: depth must be in [0, 62]");
  }
  std::vector<double> times(std::size_t(1ULL << depth) + 1);
  const double dt = total_time / static_cast<double>(times.size() - 1);
  for (std::size_t i = 0; i < times.size(); ++i) times[i] = dt * static_cast<double>(i);
  return from_times(times);
}

BridgeSchedule BridgeSchedule::from_times(std::span<const double> times) {
  BridgeSchedule s;
  const std::size_t n = times.size();
  if (n < 2 || ((n - 1) & (n - 2)) != 0) {
    throw std::invalid_argument("BridgeSchedule: need 2^depth + 1 time points");
  }
  int depth = 0;
  while ((std::size_t{1} << depth) + 1 < n) ++depth;
  s.depth_ = depth;
  s.times_.assign(times.begin(), times.end());
  s.terminal_sig_ = std::sqrt(times[n - 1] - times[0]);

  const std::size_t total = (std::size_t{1} << depth) - 1;
  s.w_l_.resize(total);
  s.w_r_.resize(total);
  s.sig_.resize(total);
  for (int d = 0; d < depth; ++d) {
    const std::size_t stride = (n - 1) >> d;
    for (std::size_t c = 0; c < (std::size_t{1} << d); ++c) {
      const double tl = times[c * stride];
      const double tm = times[c * stride + stride / 2];
      const double tr = times[(c + 1) * stride];
      const std::size_t k = offset(d) + c;
      s.w_l_[k] = (tr - tm) / (tr - tl);
      s.w_r_[k] = (tm - tl) / (tr - tl);
      s.sig_[k] = std::sqrt((tm - tl) * (tr - tm) / (tr - tl));
    }
  }
  return s;
}

arch::AlignedVector<double> lane_block_normals(std::span<const double> z, std::size_t nsim,
                                               std::size_t per_path, int width) {
  assert(z.size() >= nsim * per_path);
  arch::AlignedVector<double> out(nsim * per_path);
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t groups = nsim / w;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t l = 0; l < w; ++l) {
      const std::size_t s = g * w + l;
      for (std::size_t i = 0; i < per_path; ++i) {
        out[g * per_path * w + i * w + l] = z[s * per_path + i];
      }
    }
  }
  // Tail paths keep per-path layout.
  for (std::size_t s = groups * w; s < nsim; ++s) {
    for (std::size_t i = 0; i < per_path; ++i) {
      out[s * per_path + i] = z[s * per_path + i];
    }
  }
  return out;
}

// --- Scalar construction (Lis. 4) -------------------------------------------

namespace {

// Build one path from z (this path's normals_per_path() normals) into the
// ping-pong buffers a and b (num_points doubles each); returns the one
// holding the path.
const double* build_one(const BridgeSchedule& sched, const double* z, double* a, double* b) {
  const int depth = sched.depth();
  std::size_t zi = 0;
  double* src = a;
  double* dst = b;
  src[0] = 0.0;
  src[1] = z[zi++] * sched.terminal_sig();
  for (int d = 0; d < depth; ++d) {
    const double* wl = sched.w_l(d);
    const double* wr = sched.w_r(d);
    const double* sg = sched.sig(d);
    dst[0] = src[0];
    for (std::size_t c = 0; c < (std::size_t{1} << d); ++c) {
      dst[2 * c + 1] = src[c] * wl[c] + src[c + 1] * wr[c] + sg[c] * z[zi++];
      dst[2 * c + 2] = src[c + 1];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

void construct_reference(const BridgeSchedule& sched, std::span<const double> z,
                         std::size_t nsim, std::span<double> out, std::size_t first,
                         std::size_t last) {
  const std::size_t np = sched.num_points();
  const std::size_t zn = sched.normals_per_path();
  last = std::min(last, nsim);
  assert(z.size() >= nsim * zn && out.size() >= nsim * np);
  arch::AlignedVector<double> a(np), b(np);
  for (std::size_t s = first; s < last; ++s) {
    const double* path = build_one(sched, z.data() + s * zn, a.data(), b.data());
    for (std::size_t c = 0; c < np; ++c) out[c * nsim + s] = path[c];
  }
}

// --- SIMD across paths -------------------------------------------------------

namespace {

// Build W paths at once from lane-blocked normals z into the ping-pong
// buffers a and b (num_points * W doubles each); returns the one holding
// the path, point-major: point c of lane l at [c * W + l].
template <int W>
const double* build_lanes(const BridgeSchedule& sched, const double* z, double* a, double* b) {
  using V = simd::Vec<double, W>;
  std::size_t zi = 0;
  double* src = a;
  double* dst = b;
  V(0.0).store(src);
  (V::load(z + (zi++) * W) * V(sched.terminal_sig())).store(src + W);

  for (int d = 0; d < sched.depth(); ++d) {
    const double* wl = sched.w_l(d);
    const double* wr = sched.w_r(d);
    const double* sg = sched.sig(d);
    V::load(src).store(dst);
    for (std::size_t c = 0; c < (std::size_t{1} << d); ++c) {
      const V left = V::load(src + c * W);
      const V right = V::load(src + (c + 1) * W);
      const V zv = V::load(z + (zi++) * W);
      const V mid = fmadd(left, V(wl[c]), fmadd(right, V(wr[c]), V(sg[c]) * zv));
      mid.store(dst + (2 * c + 1) * W);
      right.store(dst + (2 * c + 2) * W);
    }
    std::swap(src, dst);
  }
  return src;
}

template <int W>
void construct_simd(const BridgeSchedule& sched, std::span<const double> z, std::size_t nsim,
                    std::span<double> out, std::size_t first, std::size_t last) {
  using V = simd::Vec<double, W>;
  const std::size_t np = sched.num_points();
  const std::size_t zn = sched.normals_per_path();
  const std::size_t full = nsim / W * W;  // paths in whole lane groups
  last = std::min(last, nsim);
  arch::AlignedVector<double> a(np * W), b(np * W);
  for (std::size_t s = first; s < std::min(last, full); s += W) {
    // Point-major output columns are contiguous, so stores are full-width.
    const double* path = build_lanes<W>(sched, z.data() + s * zn, a.data(), b.data());
    for (std::size_t c = 0; c < np; ++c) V::load(path + c * W).storeu(out.data() + c * nsim + s);
  }
  // Tail paths kept per-path normals: the scalar construction.
  if (full < last) construct_reference(sched, z, nsim, out, std::max(first, full), last);
}

// Interleaved generation: per group of W paths, generate the zn*W normals
// into a cache-resident buffer and consume immediately. Each group gets an
// independent Philox stream so the construction is parallel and
// reproducible regardless of thread count.
template <int W, class Consume>
void run_interleaved(const BridgeSchedule& sched, std::uint64_t seed, std::size_t nsim,
                     std::size_t first, std::size_t last, Consume&& consume) {
  const std::size_t np = sched.num_points();
  const std::size_t zn = sched.normals_per_path();
  const std::size_t groups = (std::min(last, nsim) + W - 1) / W;
  arch::AlignedVector<double> zbuf(zn * W);
  arch::AlignedVector<double> a(np * W), b(np * W);
  for (std::size_t g = first / W; g < groups; ++g) {
    rng::NormalStream stream(seed, static_cast<std::uint64_t>(g));
    stream.fill(zbuf);
    const std::size_t base = static_cast<std::size_t>(g) * W;
    const std::size_t lanes = std::min<std::size_t>(W, nsim - base);
    if (lanes == W) {
      // Full group: vector construction straight from the cache buffer.
      consume(build_lanes<W>(sched, zbuf.data(), a.data(), b.data()), base, W);
    } else {
      // Ragged final group: scalar per lane, reading lane-strided normals.
      arch::AlignedVector<double> zs(zn);
      for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < zn; ++i) zs[i] = zbuf[i * W + l];
        consume(build_one(sched, zs.data(), a.data(), b.data()), base + l, 1);
      }
    }
  }
}

}  // namespace

void construct_intermediate(const BridgeSchedule& sched, std::span<const double> z,
                            std::size_t nsim, std::span<double> out, Width w, std::size_t first,
                            std::size_t last) {
  assert(out.size() >= nsim * sched.num_points());
  simd::with_lanes<double>(
      w, [&](auto L) { construct_simd<L>(sched, z, nsim, out, first, last); });
}

void construct_advanced_interleaved(const BridgeSchedule& sched, std::uint64_t seed,
                                    std::size_t nsim, std::span<double> out, Width w,
                                    std::size_t first, std::size_t last) {
  assert(out.size() >= nsim * sched.num_points());
  const std::size_t np = sched.num_points();
  // path is [point][lane] for `lanes` paths.
  auto store = [&](const double* path, std::size_t base, std::size_t lanes) {
    for (std::size_t c = 0; c < np; ++c) {
      for (std::size_t l = 0; l < lanes; ++l) out[c * nsim + base + l] = path[c * lanes + l];
    }
  };
  simd::with_lanes<double>(
      w, [&](auto L) { run_interleaved<L>(sched, seed, nsim, first, last, store); });
}

void construct_advanced_fused(const BridgeSchedule& sched, std::uint64_t seed, std::size_t nsim,
                              std::span<double> path_average_out, Width w, std::size_t first,
                              std::size_t last) {
  assert(path_average_out.size() >= nsim);
  const std::size_t np = sched.num_points();
  const double inv = 1.0 / static_cast<double>(np - 1);
  auto average = [&](const double* path, std::size_t base, std::size_t lanes) {
    for (std::size_t l = 0; l < lanes; ++l) {
      double acc = 0.0;
      for (std::size_t c = 1; c < np; ++c) acc += path[c * lanes + l];
      path_average_out[base + l] = acc * inv;
    }
  };
  simd::with_lanes<double>(
      w, [&](auto L) { run_interleaved<L>(sched, seed, nsim, first, last, average); });
}

}  // namespace finbench::kernels::brownian
