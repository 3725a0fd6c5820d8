// finbench/kernels/brownian.hpp
//
// Kernel 3: Brownian-bridge path construction (paper Sec. IV-C, Fig. 6,
// Lis. 4). A depth-D bridge builds a (2^D + 1)-point Brownian path on a
// time grid by recursive midpoint refinement, consuming 2^D normal
// deviates per path: one for the terminal point, then 2^d conditional
// midpoints at each level d.
//
// Level-d midpoint between known points (t_l, v_l) and (t_r, v_r):
//   v_m = w_l * v_l + w_r * v_r + sig * Z
//   w_l = (t_r-t_m)/(t_r-t_l), w_r = (t_m-t_l)/(t_r-t_l),
//   sig = sqrt((t_m-t_l)(t_r-t_m)/(t_r-t_l))            [Glasserman 2004]
//
// The unconditional law of the result is standard Brownian motion:
// Cov(v(t_i), v(t_j)) = min(t_i, t_j) — the property tests key on this.
//
// Variants (paper's stacked-bar levels, Fig. 6):
//   reference — Lis. 4 per-path scalar construction; also the basic
//       level, which adds nothing the compiler can use (the outer loop
//       does not autovectorize because of how normals are consumed across
//       iterations)
//   intermediate — SIMD across paths: W paths per lane; normals must be
//       supplied lane-blocked (see lane_block_normals)
//   advanced_interleaved — normals are generated on the fly in LLC-sized
//       chunks and consumed from cache, removing the DRAM stream of
//       pre-generated normals; each full lane group runs the same lane
//       build as intermediate
//   advanced_fused — additionally the constructed path is consumed
//       immediately (arithmetic path average, an Asian-payoff style
//       reduction) and never written to DRAM ("cache-to-cache")
//
// Output layout for constructed paths is point-major: out[c * nsim + s]
// (point c of simulation s), identical across variants.

#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "finbench/arch/aligned.hpp"
#include "finbench/rng/normal.hpp"
#include "finbench/vecmath/array_math.hpp"

namespace finbench::kernels::brownian {

using vecmath::Width;

// Precomputed interpolation weights for every level of one bridge.
class BridgeSchedule {
 public:
  // Uniform grid on [0, total_time] with 2^depth steps; throws
  // std::invalid_argument unless 0 <= depth < 63.
  static BridgeSchedule uniform(int depth, double total_time);
  // Arbitrary increasing grid; times.size() must be 2^depth + 1 and
  // times[0] is the (known) starting point of the path.
  static BridgeSchedule from_times(std::span<const double> times);

  int depth() const { return depth_; }
  std::size_t num_points() const { return (std::size_t{1} << depth_) + 1; }
  std::size_t normals_per_path() const { return std::size_t{1} << depth_; }
  double terminal_sig() const { return terminal_sig_; }
  const std::vector<double>& times() const { return times_; }

  // Level-d arrays, c in [0, 2^d).
  const double* w_l(int d) const { return w_l_.data() + offset(d); }
  const double* w_r(int d) const { return w_r_.data() + offset(d); }
  const double* sig(int d) const { return sig_.data() + offset(d); }

 private:
  static std::size_t offset(int d) { return (std::size_t{1} << d) - 1; }
  int depth_ = 0;
  double terminal_sig_ = 0.0;
  std::vector<double> times_;
  std::vector<double> w_l_, w_r_, sig_;
};

// Reorder per-path normal streams into the lane-blocked layout consumed by
// the SIMD variants: z[s * perPath + i] -> out[g * perPath * W + i * W + l]
// with s = g * W + l. Paths beyond the last full group keep per-path layout.
arch::AlignedVector<double> lane_block_normals(std::span<const double> z, std::size_t nsim,
                                               std::size_t per_path, int width);

// Every construction takes a path range [first, last) of the nsim-path
// batch (default: all of it) and writes those paths into the batch's
// point-major `out`, so disjoint ranges may run concurrently. first, and
// last unless it reaches nsim, must be multiples of the SIMD width (8
// covers every width): lane groups, their normals and the interleaved
// Philox streams then stay those of the whole batch, bit for bit.
inline constexpr std::size_t kAllPaths = ~std::size_t{0};

// Scalar Lis. 4, one path at a time (the reference and basic levels); z
// holds nsim * normals_per_path values.
void construct_reference(const BridgeSchedule& sched, std::span<const double> z,
                         std::size_t nsim, std::span<double> out, std::size_t first = 0,
                         std::size_t last = kAllPaths);
// SIMD across paths; z must be lane-blocked for width `w`.
void construct_intermediate(const BridgeSchedule& sched, std::span<const double> z,
                            std::size_t nsim, std::span<double> out, Width w = Width::kAuto,
                            std::size_t first = 0, std::size_t last = kAllPaths);
// Generates its own normals (Philox/ICDF) in cache-resident chunks.
void construct_advanced_interleaved(const BridgeSchedule& sched, std::uint64_t seed,
                                    std::size_t nsim, std::span<double> out,
                                    Width w = Width::kAuto, std::size_t first = 0,
                                    std::size_t last = kAllPaths);
// Fused consumer: returns per-path arithmetic average of the path points
// (excluding the pinned start); paths never touch DRAM.
void construct_advanced_fused(const BridgeSchedule& sched, std::uint64_t seed, std::size_t nsim,
                              std::span<double> path_average_out, Width w = Width::kAuto,
                              std::size_t first = 0, std::size_t last = kAllPaths);

// Cost model: ~5 flops per constructed midpoint (2 mul + 2 fma-ish),
// 2^depth midpoints per path.
inline double flops_per_path(int depth) { return std::ldexp(5.0, depth); }

}  // namespace finbench::kernels::brownian
