// finbench/kernels/cranknicolson.hpp
//
// Kernel 5: Crank–Nicolson finite-difference pricing of American options
// with a projected Gauss–Seidel SOR (PSOR) implicit solver (paper
// Sec. IV-E, Fig. 7/8, Lis. 6/7).
//
// The Black–Scholes PDE is reduced to the heat equation u_tau = u_xx via
// the standard transform x = ln(S/K), tau = sigma^2 (T-t)/2,
// V = K u e^{-(q-1)x/2 - (q+1)^2 tau/4} with q = 2r/sigma^2. Crank–Nicolson
// with mesh ratio alpha = dtau/dx^2 gives, per time step,
//
//   explicit half:  B_j = (1-alpha) U_j + alpha/2 (U_{j+1} + U_{j-1})
//   implicit half:  (1+alpha) u_j - alpha/2 (u_{j-1} + u_{j+1}) = B_j
//
// solved by PSOR with the early-exercise obstacle G_j = transformed payoff:
//
//   y     = (B_j + alpha/2 (u_{j-1} + u_{j+1})) / (1 + alpha)
//   u_j  <- max(G_j, u_j + omega (y - u_j))
//
// Every solver honors OptionSpec::style: a European option's interior
// obstacle is -inf, so the projection is a no-op and PSOR solves the plain
// Crank–Nicolson system; both styles keep the payoff as Dirichlet
// boundary values.
//
// The GSOR recurrence has dependences (k, j) <- (k, j-1), (k-1, j+1)
// (iteration k, grid point j), so points with equal t = 2k + j are
// independent (Fig. 7). The SIMD variants run W consecutive convergence
// iterations as SIMD lanes along that wavefront, checking convergence
// every W iterations — the transformation the paper notes a compiler
// cannot legally perform.
//
// Variants (Fig. 8's bars):
//   reference       — scalar Lis. 6/7, convergence checked every iteration
//   reference_blocked — scalar, but convergence checked every W iterations;
//                     produces iteration-identical results to the wavefront
//                     variants (used for equivalence testing)
//   wavefront       — SIMD lanes along the t = 2k + j diagonal; U/B/G
//                     accessed with stride-2 gathers ("Manual SIMD" bar)
//   wavefront_split — parity-split (even/odd j) storage of U, B, G makes
//                     every wavefront access unit-stride ("Data structure
//                     transform" bar)
//
// The direct solve of the same discretization — a Thomas tridiagonal
// solve for Europeans, its Brennan–Schwartz projection for the American
// put — is exact for each step's linear-complementarity problem with no
// iteration. The scalar forms are validation baselines (the Thomas price
// converges to the closed-form Black–Scholes price); the option-packed
// form (price_direct_packed, beyond the paper) is an engine path, W
// options per SIMD vector.

#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "finbench/core/option.hpp"
#include "finbench/vecmath/array_math.hpp"

namespace finbench::core {
class ScratchPool;  // finbench/core/scratch_pool.hpp
}

namespace finbench::kernels::cn {

using vecmath::Width;

struct GridSpec {
  int num_prices = 257;       // spatial points (including boundaries)
  int num_steps = 1000;       // time steps
  double halfwidth = 0.0;     // x half-width; 0 => auto (5 sigma sqrt(T) + moneyness)
  double epsilon = 1e-16;     // PSOR convergence: sum of squared updates,
                              // relative to the squared payoff scale. The
                              // scale is the grid's largest payoff, far
                              // above the price at mid: 1e-12 stops the
                              // reference up to 3e-4 from converged.
  double omega0 = 1.0;        // initial SOR relaxation
  double domega = 0.05;       // relaxation adaptation step (Lis. 6)
};

struct SolveResult {
  double price = 0.0;
  long total_iterations = 0;  // PSOR iterations summed over all time steps
};

SolveResult price_reference(const core::OptionSpec& opt, const GridSpec& grid);
SolveResult price_reference_blocked(const core::OptionSpec& opt, const GridSpec& grid,
                                    int block);
SolveResult price_wavefront(const core::OptionSpec& opt, const GridSpec& grid,
                            Width w = Width::kAuto);
SolveResult price_wavefront_split(const core::OptionSpec& opt, const GridSpec& grid,
                                  Width w = Width::kAuto);

// Extension beyond the paper: two options' wavefronts interleaved in one
// loop. The wavefront's throughput limiter is the serial store->load
// dependence between consecutive steps of ONE solve; running two
// independent solves in lockstep doubles the instruction-level parallelism
// without touching the algorithm. Both options must use the same grid.
std::pair<SolveResult, SolveResult> price_wavefront_split_pair(const core::OptionSpec& a,
                                                               const core::OptionSpec& b,
                                                               const GridSpec& grid,
                                                               Width w = Width::kAuto);

// European baseline: same grid, Thomas tridiagonal solve, no obstacle.
double price_european_thomas(const core::OptionSpec& opt, const GridSpec& grid);

// Generalized theta-scheme European solve on the same transformed grid:
// theta = 0 explicit Euler (conditionally stable: needs alpha <= 1/2),
// theta = 1 fully implicit (O(dtau)), theta = 1/2 Crank–Nicolson
// (O(dtau^2)). Exposed to measure the stability/accuracy trade the paper's
// Sec. II summarizes ("the solution is then marched backwards").
// `rannacher` replaces the first two steps with fully implicit ones —
// the standard production damping for the payoff-kink oscillation that
// plain Crank–Nicolson carries into the greeks.
double price_european_theta(const core::OptionSpec& opt, const GridSpec& grid, double theta,
                            bool rannacher = false);

// The mesh ratio alpha = dtau/dx^2 the grid implies for this option (the
// explicit scheme's stability number).
double mesh_ratio(const core::OptionSpec& opt, const GridSpec& grid);

// Early-exercise boundary of an American put: out[k] is the critical spot
// S*(tau_k) at time-to-expiry tau_k = (k+1) * T / num_steps — exercise is
// optimal at or below it. Size num_steps. The boundary rises to the strike
// as expiry approaches (out is non-increasing in k, bounded by K).
std::vector<double> exercise_boundary(const core::OptionSpec& opt, const GridSpec& grid);

// Extension: Brennan–Schwartz direct solver for the American *put* — the
// linear-complementarity problem of each CN step solved exactly in O(M)
// with no iteration (valid because a vanilla put's exercise region is a
// single interval at low prices; Jaillet–Lamberton–Lapeyre 1990). The
// non-iterative baseline PSOR is measured against. Throws for calls.
SolveResult price_american_brennan_schwartz(const core::OptionSpec& opt, const GridSpec& grid);

// --- Option-packed direct solve (beyond the paper) ---------------------------
//
// The wavefront variants put the *iterations* of one option in the SIMD
// lanes, so they stay bound by its serial store->load chain. This path
// puts W *options* in the lanes (8 with AVX-512, 4 with AVX2; storage SoA
// [j][lane], every lane with its own mesh ratio, obstacle and transform)
// and replaces the iteration by the exact direct solve. Each time step is
// one explicit half-step, one obstacle fill, one right-to-left elimination
// and one left-to-right substitution projected onto the obstacle — the
// Brennan–Schwartz step above, lane by lane. The elimination factors
// depend only on the mesh ratio, so they are computed once per option.
//
//   - Europeans take the same path: their interior obstacle is -inf, so
//     the projection is a no-op and the step is exactly a Thomas solve.
//   - Calls are stored mirrored (j -> m-1-j). The constant-coefficient CN
//     operator is symmetric under the reversal, so a call's exercise
//     interval sits at the low end like a put's and one sweep direction
//     serves both; its price is read at m-1-mid.
//   - A partial pack repeats its last real lane. No lane reads another,
//     so every price depends on its own option alone: bitwise the same
//     whichever options share its pack, however a caller splits the
//     batch, and for W = 4 and W = 8.

// Workspace doubles one pack needs on this grid, for any width.
std::size_t direct_packed_doubles(const GridSpec& grid);

// Prices opts[i] into out[i], W at a time, pack after pack on the calling
// thread. The pack workspace is leased once from
// `scratch` (a local allocation when it is null, too small or
// exhausted). Any type, any style. Throws std::invalid_argument for an
// option make_transform rejects, or a grid with fewer than 3 prices.
void price_direct_packed(std::span<const core::OptionSpec> opts, const GridSpec& grid,
                         std::span<double> out, Width w = Width::kAuto,
                         core::ScratchPool* scratch = nullptr);

// Batch driver, matching Fig. 8's setup: a serial loop over the options
// (the engine's pool threads it, one range of options per call).
enum class Variant {
  kReference,
  kWavefront,
  kWavefrontSplit,
  kWavefrontSplitPaired,  // options processed two at a time (ILP pairing)
  kDirectPacked,          // price_direct_packed, W options per pack
};
// A kernel exception propagates to the caller. `scratch` feeds
// kDirectPacked's pack workspace.
void price_batch(std::span<const core::OptionSpec> opts, const GridSpec& grid, Variant v,
                 std::span<double> out, Width w = Width::kAuto,
                 core::ScratchPool* scratch = nullptr);

// ~8 flops per PSOR point update + explicit step; used for rooflines.
inline double flops_per_option_estimate(const GridSpec& g, double avg_iters_per_step) {
  const double interior = g.num_prices - 2;
  return g.num_steps * interior * (8.0 * avg_iters_per_step + 6.0);
}

// The direct solve: ~11 flops per interior point per step (explicit
// half-step 4, elimination 3, obstacle 1, projected substitution 3).
inline double flops_per_option_direct(const GridSpec& g) {
  return g.num_steps * (g.num_prices - 2) * 11.0;
}

}  // namespace finbench::kernels::cn
