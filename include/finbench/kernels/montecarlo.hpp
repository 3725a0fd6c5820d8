// finbench/kernels/montecarlo.hpp
//
// Kernel 4: Monte Carlo European option pricing (paper Sec. IV-D, Lis. 5,
// Table II). Each option is priced by averaging the discounted payoff of
// npath geometric-Brownian terminal values:
//
//   S_T = S * exp((r - sigma^2/2) T + sigma sqrt(T) Z),  Z ~ N(0,1)
//
// Two RNG regimes, matching Table II's rows:
//   *stream*   — normals are pre-generated and streamed from memory; the
//                same array is reused for every option (compute-bound:
//                the exp dominates)
//   *computed* — normals are generated on the fly, a fresh set per option
//                (RNG-dominated)
//
// Variants:
//   reference — scalar inner loop, exactly Lis. 5
//   basic     — reference + "#pragma omp simd reduction" + unroll on the
//               path loop (the paper's point: basic pragmas get this
//               kernel to peak)
//   optimized — explicit SIMD over paths with Vec classes + vecmath::exp,
//               selectable width; computed-RNG flavor interleaves
//               chunked Philox/ICDF generation with integration
//
// Unlike Lis. 5 (which sums raw payoffs), results are returned discounted,
// with the standard error of the estimate.
//
// In montecarlo.cpp every entry point prices through one PathModel per
// option (libm terminal price, payoff, finalize); the SIMD ones sum
// through one SimdSum<W>. Normals come from the caller's stream array or
// from each_chunk, option o's Philox substream kRngChunk draws at a time,
// so price_optimized_computed equals price_optimized_stream run on
// NormalStream(seed, stream_base + o). Every entry point throws
// std::invalid_argument on npath 0 and adds its paths to "mc.paths".

#pragma once

#include <cstdint>
#include <span>

#include "finbench/core/option.hpp"
#include "finbench/vecmath/array_math.hpp"

namespace finbench::core {
class ScratchPool;  // finbench/core/scratch_pool.hpp
}

namespace finbench::kernels::mc {

using vecmath::Width;

// Normals per cache-resident RNG chunk in the computed flavors — also the
// per-worker scratch slot size engines pre-carve so steady-state pricing
// never allocates (the kernels lease from `scratch` when provided and
// fall back to a local aligned buffer otherwise).
inline constexpr std::size_t kRngChunk = 4096;

struct McResult {
  double price = 0.0;      // discounted mean payoff
  double std_error = 0.0;  // standard error of the mean (discounted)
};

// ~10 flops + 1 exp (~20 flops) per path.
inline constexpr double kFlopsPerPath = 30.0;

// --- stream-RNG flavor: z.size() >= npath, shared across options ----------
void price_reference_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                            std::size_t npath, std::span<McResult> out);
void price_basic_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                        std::size_t npath, std::span<McResult> out);
void price_optimized_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                            std::size_t npath, std::span<McResult> out, Width w = Width::kAuto);

// --- Path-block partials: intra-option task parallelism ---------------------
// Raw payoff moments of one option over the normal block z: v0 = sum of
// payoffs, v1 = sum of squared payoffs — the same accumulation
// integrate_paths performs, cut at a block boundary. Combining per-block
// partials in block order and finalizing yields a *deterministic* price
// for a fixed block split, but NOT one bitwise-equal to the flat
// single-sweep accumulation (the reduction tree differs); callers that
// need bitwise-stable output across task on/off must keep npath below the
// engine's task threshold or pin tasks off.
struct McMoments {
  double v0 = 0.0;
  double v1 = 0.0;
};
McMoments integrate_stream_partial(const core::OptionSpec& opt, std::span<const double> z,
                                   Width w = Width::kAuto);
McResult finalize_moments(const core::OptionSpec& opt, const McMoments& m, std::size_t npath);

// --- computed-RNG flavor: a fresh Philox substream per option --------------
// Option o draws from NormalStream(seed, stream_base + o), so a caller
// pricing a sub-range [b, e) of a larger portfolio passes stream_base = b
// and reproduces the whole-batch numbers exactly (the engine's chunked
// execution relies on this).
void price_reference_computed(std::span<const core::OptionSpec> opts, std::size_t npath,
                              std::uint64_t seed, std::span<McResult> out,
                              std::uint64_t stream_base = 0,
                              core::ScratchPool* scratch = nullptr);
void price_optimized_computed(std::span<const core::OptionSpec> opts, std::size_t npath,
                              std::uint64_t seed, std::span<McResult> out,
                              Width w = Width::kAuto, std::uint64_t stream_base = 0,
                              core::ScratchPool* scratch = nullptr);

// --- Variance reduction (extension; Glasserman ch. 4) -----------------------
// Antithetic pairs (+Z, -Z) halve the variance of monotone payoffs; the
// optional control variate regresses the payoff on the terminal stock
// (whose undiscounted mean E[S_T] = S e^{(r-q)T} is known exactly) and
// removes the correlated component. `npath` counts total paths (antithetic pairs use
// npath/2 draws). std_error reflects the reduced estimator.
void price_variance_reduced(std::span<const core::OptionSpec> opts, std::size_t npath,
                            std::uint64_t seed, std::span<McResult> out,
                            bool antithetic = true, bool control_variate = true,
                            std::uint64_t stream_base = 0,
                            core::ScratchPool* scratch = nullptr);

// --- Pathwise greeks (extension; Glasserman ch. 7) ---------------------------
// Unbiased delta and vega estimators from the same terminal draws as the
// price: for a call, d payoff/d S0 = 1{S_T > K} S_T / S0 and
// d payoff/d sigma = 1{S_T > K} S_T (ln(S_T/S0) - (r - q + sigma^2/2) T)/sigma.
// Gamma has no pathwise estimator (the payoff kink); it is the pure
// likelihood-ratio estimator gamma = e^{-rT} E[payoff * w] with weight
// w = (z^2 - 1) / (S0^2 sigma^2 T) - z / (S0^2 sigma sqrt(T)).
struct McGreeks {
  double price = 0.0;
  double delta = 0.0;
  double vega = 0.0;
  double gamma = 0.0;
  double delta_se = 0.0;  // standard errors of the estimators
  double vega_se = 0.0;
};

void greeks_pathwise(std::span<const core::OptionSpec> opts, std::size_t npath,
                     std::uint64_t seed, std::span<McGreeks> out);

}  // namespace finbench::kernels::mc
