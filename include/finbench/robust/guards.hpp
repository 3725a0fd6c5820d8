// finbench/robust/guards.hpp
//
// Post-kernel output guardrails. After a kernel (or one chunk of it) has
// run, the engine scans what it produced:
//
//   kFinite  every output must be a finite double/float — the cheap scan
//            that catches a poisoned lane, a diverged solver, or an
//            injected fault (the engine's default)
//   kFull    kFinite plus no-arbitrage bounds for European vanilla
//            outputs: intrinsic-style lower bounds and the spot/strike
//            upper bounds (call <= S e^{-qT}, put <= K e^{-rT}), with a
//            relative slack for discretization error
//   kOff     trust the kernel
//
// A failing chunk is quarantined and re-priced through the variant's
// fallback chain (engine.cpp); a failing Black–Scholes option is repaired
// by the scalar closed form — the chain's terminal reference. Guard events
// land in the "robust.guard.*" counters and per-chunk statuses.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "finbench/core/option.hpp"
#include "finbench/core/portfolio.hpp"

namespace finbench::robust {

enum class GuardMode { kOff, kFinite, kFull };

constexpr std::string_view to_string(GuardMode m) {
  switch (m) {
    case GuardMode::kOff: return "off";
    case GuardMode::kFinite: return "finite";
    case GuardMode::kFull: return "full";
  }
  return "?";
}

struct GuardPolicy {
  GuardMode mode = GuardMode::kFinite;
  // Relative slack on the kFull no-arbitrage bounds (lattice/PDE
  // discretization legitimately sags slightly below the hard bound).
  double bound_slack = 5e-3;
  // kFull bound checks only apply to deterministic European vanilla
  // pricers; statistical estimators (Monte Carlo) get kFinite regardless,
  // since a finite-sample mean can legally poke past the bounds.
  bool bounds_enabled(bool statistical) const {
    return mode == GuardMode::kFull && !statistical;
  }
};

// Number of guard violations among values[i] for specs[i + offset_unused],
// honoring the sanitizer mask (masked-out options are exempt: their NaN is
// deliberate). specs may be empty (paths workloads) — then only finiteness
// is checked. Returns the violation count; `first` (when non-null)
// receives the index of the first violation relative to `values`.
std::size_t guard_specs_range(std::span<const core::OptionSpec> specs,
                              std::span<const double> values, const GuardPolicy& policy,
                              bool statistical, std::span<const std::uint8_t> mask,
                              std::size_t mask_offset, std::size_t* first = nullptr);

// Guard the outputs of a whole BS batch view and repair every violating
// option in place with the scalar Black–Scholes closed form (the fallback
// chain's terminal reference). Masked options are exempt. Returns the
// number of repaired options. `f32` outputs are checked and repaired at
// float precision.
std::size_t guard_and_repair_bs(const core::PortfolioView& view, const GuardPolicy& policy,
                                std::span<const std::uint8_t> mask);

}  // namespace finbench::robust
