// finbench/robust/sanitize.hpp
//
// The workload sanitizer: one scan over a core::PortfolioView that flags
// per-option input faults (non-finite fields, non-positive spot / strike /
// vol / expiry, denormal and absurd magnitudes) and applies the request's
// policy:
//
//   kOff    trust the workload (the raw-benchmark mode; garbage in,
//           garbage out, exactly as a direct kernel call behaves)
//   kReject any fault fails the whole request with kInvalidInput and a
//           per-option fault mask — nothing is priced
//   kClamp  finite-but-out-of-domain fields are clamped into the sane
//           envelope (and counted); non-finite fields cannot be clamped
//           and demote the option to skipped
//   kSkip   faulty options are masked out: they price as a benign
//           placeholder (so SIMD lanes and int casts stay well-defined)
//           and their outputs are forced to quiet NaN afterwards
//
// The scan mutates BS-layout data in place under kClamp/kSkip (the spans
// are mutable precisely because kernels write through them); kSpecs
// workloads are immutable through their view, so the engine prices a
// sanitized arena copy instead. Fault counts flow into the obs counters
// "robust.sanitize.*" and the run report's `robust` object.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "finbench/core/option.hpp"
#include "finbench/core/portfolio.hpp"

namespace finbench::robust {

enum class SanitizePolicy { kOff, kReject, kClamp, kSkip };

constexpr std::string_view to_string(SanitizePolicy p) {
  switch (p) {
    case SanitizePolicy::kOff: return "off";
    case SanitizePolicy::kReject: return "reject";
    case SanitizePolicy::kClamp: return "clamp";
    case SanitizePolicy::kSkip: return "skip";
  }
  return "?";
}

// Per-option fault bits (OR-ed into the mask).
enum OptionFault : std::uint8_t {
  kFaultNone = 0,
  kFaultNonFinite = 1u << 0,  // NaN / Inf in any field
  kFaultDomain = 1u << 1,     // non-positive spot/strike/vol/expiry, |rate| > 1
  kFaultMagnitude = 1u << 2,  // denormal or absurd (> 1e15) magnitude
  kFaultClamped = 1u << 4,    // sanitizer repaired the option in place
  kFaultSkipped = 1u << 5,    // sanitizer masked the option out entirely
};

// The sane envelope clamped values land in. Wide on purpose: the
// sanitizer polices representability, not market plausibility.
struct SanitizeEnvelope {
  double min_positive = 1e-12;  // spot/strike/vol/years floor
  double max_magnitude = 1e15;  // spot/strike ceiling
  double max_vol = 10.0;        // 1000% vol
  double max_years = 200.0;
  double max_abs_rate = 1.0;    // +-100% rates
};

struct SanitizeReport {
  std::size_t scanned = 0;
  std::size_t faulty = 0;    // options with any fault bit
  std::size_t clamped = 0;   // repaired in place / in the copy
  std::size_t skipped = 0;   // masked out (includes non-finite under kClamp)
  // One byte of OptionFault bits per option; empty when no fault was
  // found (the common case allocates nothing).
  std::vector<std::uint8_t> mask;

  bool clean() const { return faulty == 0; }
  void reset() {
    scanned = faulty = clamped = skipped = 0;
    mask.clear();
  }
};

// Scan (and under kClamp/kSkip repair in place) a mutable-span workload
// view. The view is taken by mutable reference because the repair of a
// faulty *shared* BS parameter (batch-wide rate/vol) lands on the view's
// scalar members — the engine passes its per-request working copy, so the
// caller's own view object is never touched (array data is, by design).
// kSpecs views are scanned but never mutated — use sanitize_specs for the
// policy-applying copy. Updates the "robust.sanitize.*" counters.
void sanitize(core::PortfolioView& view, SanitizePolicy policy, SanitizeReport& out,
              const SanitizeEnvelope& env = {});

// --- Black–Scholes range scans -----------------------------------------------
//
// sanitize() on a BS view is sanitize_shared() followed by one
// sanitize_range() over the whole view. The engine splits the two: the
// batch-wide rate/vol/dividend are classified (and repaired) once per call
// on its working view, then every chunk scans its own core::subview while
// the chunk is cache-resident.

// Classify the shared scalars of a BS view, repairing them in place on
// `view` under kClamp/kSkip. Returns the fault bits every option of the
// batch inherits (kFaultNone when the scalars are sane or policy is kOff).
std::uint8_t sanitize_shared(core::PortfolioView& view, SanitizePolicy policy,
                             const SanitizeEnvelope& env = {});

// Scan (and under kClamp/kSkip repair in place) the options of a BS view,
// typically a chunk subview, given the bits sanitize_shared returned.
// `out` describes this range only: its mask is indexed from the range
// start and materializes only when a fault is found. A branch-free
// envelope test clears a fault-free range before any per-option
// classification runs; masks and counts are exactly those of the
// per-option scan. Touches no counters (see record_sanitize).
void sanitize_range(const core::PortfolioView& view, std::uint8_t shared, SanitizePolicy policy,
                    SanitizeReport& out, const SanitizeEnvelope& env = {});

// Add a report's counts to the "robust.sanitize.*" counters. sanitize()
// does this itself; range callers do it once for their merged report.
void record_sanitize(const SanitizeReport& r);

// Policy application for kSpecs workloads: writes a sanitized copy of
// `src` into `dst` (same length; pre-carved from the request arena).
// Clamped options are repaired, skipped options are replaced by a benign
// placeholder; `out.mask` says which is which.
void sanitize_specs(std::span<const core::OptionSpec> src, std::span<core::OptionSpec> dst,
                    SanitizePolicy policy, SanitizeReport& out,
                    const SanitizeEnvelope& env = {});

// Fault bits for one spec (no mutation, no counters) — the scan primitive.
std::uint8_t classify(const core::OptionSpec& o, const SanitizeEnvelope& env = {});

}  // namespace finbench::robust
