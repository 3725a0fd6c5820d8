// finbench/core/workload.hpp
//
// Deterministic random workloads: the heterogeneous option-spec generator
// and the Black–Scholes book parameters. Parameter ranges follow the
// common financial-benchmark convention the paper's kernels assume (spot
// and strike of the same magnitude, expiries from months to years,
// moderate vols) so that every kernel's numerical path — deep in/out of
// the money, short/long dated — is exercised.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "finbench/core/option.hpp"

namespace finbench::core {

// Parameter ranges of a Black–Scholes book. The book itself is drawn by
// core::Portfolio::bs (finbench/core/portfolio.hpp), the one generator:
// one AOS-ordered Philox pass written in place in any layout, so layout
// choice never changes the workload.
struct WorkloadParams {
  double spot_min = 10.0, spot_max = 200.0;
  double strike_min = 10.0, strike_max = 200.0;
  double years_min = 0.25, years_max = 5.0;
  double rate = 0.05;   // shared across the batch (as in Lis. 1)
  double vol = 0.25;    // shared across the batch
};

// Heterogeneous single-option workloads (per-option r and sigma) for the
// lattice / PDE / Monte Carlo kernels.
struct SingleOptionWorkloadParams {
  double spot_min = 50.0, spot_max = 150.0;
  double strike_min = 50.0, strike_max = 150.0;
  double years_min = 0.25, years_max = 3.0;
  double rate_min = 0.01, rate_max = 0.08;
  double vol_min = 0.10, vol_max = 0.60;
  OptionType type = OptionType::kPut;
  ExerciseStyle style = ExerciseStyle::kEuropean;
};

// Draws out.size() options in place (Philox stream 0xA0): the one draw
// loop behind make_option_workload and core::Portfolio::specs, so both
// hold the same options for one (n, seed).
void draw_option_workload(std::span<OptionSpec> out, std::uint64_t seed = 0,
                          const SingleOptionWorkloadParams& p = {});

std::vector<OptionSpec> make_option_workload(std::size_t n, std::uint64_t seed = 0,
                                             const SingleOptionWorkloadParams& p = {});

}  // namespace finbench::core
