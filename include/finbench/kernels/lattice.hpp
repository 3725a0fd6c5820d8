// finbench/kernels/lattice.hpp
//
// Lattice-method extensions beyond the paper's CRR binomial kernel
// (Fig. 1 groups "lattice methods" as a family; these are the other two
// standard members):
//
//   Leisen–Reimer binomial — Peizer–Pratt inversion places the lattice
//     nodes so the strike falls on a node; converges O(1/N^2) for
//     European options versus CRR's oscillating O(1/N). The practical
//     choice when lattice accuracy matters.
//
//   Trinomial tree (Boyle / Kamrad–Ritchken, lambda = sqrt(3)) — three
//     branches per node; equivalent to an explicit finite-difference
//     stencil, denser per step but smoother convergence than CRR.
//
// Both support American exercise; both are validated against analytic
// Black–Scholes (European) and CRR (American) in tests/test_lattice.cpp.

#pragma once

#include <span>

#include "finbench/core/option.hpp"

namespace finbench::kernels::lattice {

// Leisen–Reimer binomial price. `steps` is rounded up to the next odd
// number (the method is defined for odd step counts).
double price_leisen_reimer(const core::OptionSpec& opt, int steps);

// Trinomial-tree price with stretch parameter lambda = sqrt(3).
double price_trinomial(const core::OptionSpec& opt, int steps);

// Broadie–Detemple smoothed binomial: CRR lattice, but the last time step
// is valued with the one-period Black–Scholes closed form at every node
// (kills the payoff-kink sawtooth); `price_bbsr` adds two-point Richardson
// extrapolation (2 * BBS(N) - BBS(N/2)). The efficient-frontier lattice
// for American options.
double price_bbs(const core::OptionSpec& opt, int steps);
double price_bbsr(const core::OptionSpec& opt, int steps);

// Bermudan option on the CRR lattice: early exercise is allowed only at
// `num_exercise_dates` equally spaced dates (including expiry). With one
// date this is the European price; as dates -> steps it converges to the
// American price — the interpolation property the tests assert.
double price_bermudan(const core::OptionSpec& opt, int steps, int num_exercise_dates);

// Greeks straight off the CRR lattice (works for American exercise, where
// no closed form exists): delta and gamma from the level-1/2 node values,
// theta from the recombining center node two steps in.
struct LatticeGreeks {
  double price = 0.0;
  double delta = 0.0;
  double gamma = 0.0;
  double theta = 0.0;  // per year
};

LatticeGreeks greeks_crr(const core::OptionSpec& opt, int steps);

// Geske–Johnson: approximate the American price by Richardson
// extrapolation over Bermudan prices with 1, 2, and 3 exercise dates —
// three cheap lattice solves instead of a dense one. Classic, and a
// useful cross-check on the dense-lattice American value.
double price_geske_johnson(const core::OptionSpec& opt, int steps);

// Batch drivers: serial loops over the options.
void price_leisen_reimer_batch(std::span<const core::OptionSpec> opts, int steps,
                               std::span<double> out);
void price_trinomial_batch(std::span<const core::OptionSpec> opts, int steps,
                           std::span<double> out);

}  // namespace finbench::kernels::lattice
