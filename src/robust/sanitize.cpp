// Workload sanitizer implementation. One forward scan per workload (or
// per chunk of one, through sanitize_range); the clean path (every option
// inside the envelope) is one branch-free pass over the inputs and
// allocates nothing — the mask materializes only when the
// first fault appears, and SanitizeReport::reset() keeps its capacity so
// steady-state re-scans of a faulty workload are allocation-free too.

#include "finbench/robust/sanitize.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "bs_scan.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/robust/denormal.hpp"

namespace finbench::robust {

namespace {

// Benign placeholder a skipped option prices as: well inside every
// envelope, cheap for every kernel (1y ATM European call). Its outputs
// are forced to quiet NaN after the run, so the placeholder price never
// escapes.
const core::OptionSpec kPlaceholder{};


// Fault bits of one positive-domain field (spot/strike/vol/years).
std::uint8_t classify_positive(double x, double ceiling, double floor) {
  if (!std::isfinite(x)) return kFaultNonFinite;
  if (x <= 0.0) return kFaultDomain;
  if (x < floor || x > ceiling) return kFaultMagnitude;
  return kFaultNone;
}

std::uint8_t classify_rate(double x, double max_abs) {
  if (!std::isfinite(x)) return kFaultNonFinite;
  if (std::abs(x) > max_abs) return kFaultDomain;
  return kFaultNone;
}

double clamp_positive(double x, double ceiling, double floor) {
  return std::clamp(x, floor, ceiling);
}

// Repair a finite-but-out-of-domain spec into the envelope. Only called
// when the spec has no non-finite field.
core::OptionSpec clamp_spec(const core::OptionSpec& o) {
  core::OptionSpec r = o;
  r.spot = clamp_positive(o.spot, kEnvelope.max_magnitude, kEnvelope.min_positive);
  r.strike = clamp_positive(o.strike, kEnvelope.max_magnitude, kEnvelope.min_positive);
  r.years = clamp_positive(o.years, kEnvelope.max_years, kEnvelope.min_positive);
  r.vol = clamp_positive(o.vol, kEnvelope.max_vol, kEnvelope.min_positive);
  r.rate = std::clamp(o.rate, -kEnvelope.max_abs_rate, kEnvelope.max_abs_rate);
  r.dividend = std::clamp(o.dividend, -kEnvelope.max_abs_rate, kEnvelope.max_abs_rate);
  return r;
}

// Lazily materialize the mask (zeroed, one byte per option). assign()
// reuses capacity across reset() cycles.
std::uint8_t* mask_for(SanitizeReport& out, std::size_t n) {
  if (out.mask.empty()) out.mask.assign(n, 0);
  return out.mask.data();
}

// --- Black–Scholes batch layouts --------------------------------------------
//
// Per-option fields are spot/strike/years; rate/vol (and dividend) are
// shared by the whole batch and classified once per call
// (sanitize_shared).

// Clean path of a range scan: one branch-free pass accepting exactly the
// options classify_positive passes against `floor` (detail::outside),
// given 0 < floor <= max_magnitude, max_years < inf.
bool inputs_clean(const core::PortfolioView& v, double floor) {
  const std::uint64_t lo = std::bit_cast<std::uint64_t>(floor);
  const std::uint64_t mag = std::bit_cast<std::uint64_t>(kEnvelope.max_magnitude) - lo;
  const std::uint64_t yrs = std::bit_cast<std::uint64_t>(kEnvelope.max_years) - lo;
  const auto bad = [&](double spot, double strike, double years) {
    return detail::outside(spot, lo, mag) | detail::outside(strike, lo, mag) |
           detail::outside(years, lo, yrs);
  };
  std::uint64_t acc = 0;
  switch (v.layout) {
    case core::Layout::kBsAos: {
      detail::AosPattern p;
      p.set(0, ~0ull, lo, mag);
      p.set(1, ~0ull, lo, mag);
      p.set(2, ~0ull, lo, yrs);
      return p.clean(v.aos);
    }
    case core::Layout::kBsSoa:
      for (std::size_t i = 0; i < v.soa.size(); ++i) {
        acc |= bad(v.soa.spot[i], v.soa.strike[i], v.soa.years[i]);
      }
      break;
    case core::Layout::kBsSoaF:
      for (std::size_t i = 0; i < v.sp.size(); ++i) {
        acc |= bad(v.sp.spot[i], v.sp.strike[i], v.sp.years[i]);
      }
      break;
    case core::Layout::kBsBlocked: {
      // Block by block over the logical lanes (padding past n is ignored).
      const core::BsBlockedView& b = v.blocked;
      const std::size_t w = static_cast<std::size_t>(b.block);
      for (std::size_t blk = 0; blk < b.num_blocks(); ++blk) {
        const double* spot = b.field(blk, 0);
        const double* strike = b.field(blk, 1);
        const double* years = b.field(blk, 2);
        const std::size_t lanes = std::min(w, b.n - blk * w);
        for (std::size_t ln = 0; ln < lanes; ++ln) acc |= bad(spot[ln], strike[ln], years[ln]);
      }
      break;
    }
    default:
      break;
  }
  return acc == 0;
}

// Shared batch parameters: a faulty rate/vol poisons every option.
std::uint8_t sanitize_scalars(core::BsScalars& s, SanitizePolicy policy) {
  std::uint8_t shared = classify_rate(s.rate, kEnvelope.max_abs_rate);
  shared |= classify_positive(s.vol, kEnvelope.max_vol, kEnvelope.min_positive);
  shared |= classify_rate(s.dividend, kEnvelope.max_abs_rate);
  const bool repair = policy == SanitizePolicy::kClamp || policy == SanitizePolicy::kSkip;
  if (shared != kFaultNone && repair) {
    // Finite shared params clamp into the envelope; non-finite ones take
    // placeholder values so the kernel runs safely — but a fabricated vol
    // prices nothing honestly, so in that case every option is also
    // skipped (outputs forced to NaN after the run).
    if (std::isfinite(s.rate)) {
      s.rate = std::clamp(s.rate, -kEnvelope.max_abs_rate, kEnvelope.max_abs_rate);
    } else {
      s.rate = kPlaceholder.rate;
    }
    if (std::isfinite(s.vol) && s.vol > 0.0) {
      s.vol = clamp_positive(s.vol, kEnvelope.max_vol, kEnvelope.min_positive);
    } else {
      s.vol = kPlaceholder.vol;
    }
    s.dividend = std::isfinite(s.dividend)
                     ? std::clamp(s.dividend, -kEnvelope.max_abs_rate, kEnvelope.max_abs_rate)
                     : 0.0;
  }
  return shared;
}

void scan_bs(const core::PortfolioView& v, std::uint8_t shared, SanitizePolicy policy,
             SanitizeReport& out) {
  const std::size_t n = v.size();
  out.scanned = n;
  // The float layout's floor: below ~1e-38 a float is denormal; classify
  // against the wider of the envelope floor and the float normal minimum.
  constexpr double kFloatFloor = 1.2e-38;
  const double floor = v.layout == core::Layout::kBsSoaF
                           ? std::max(kEnvelope.min_positive, kFloatFloor)
                           : kEnvelope.min_positive;
  // The bit-range test is exact only for 0 < floor <= ceiling < inf.
  static_assert(kEnvelope.min_positive > 0.0 && kFloatFloor > 0.0);
  static_assert(kEnvelope.max_magnitude >= std::max(kEnvelope.min_positive, kFloatFloor) &&
                kEnvelope.max_years >= std::max(kEnvelope.min_positive, kFloatFloor));
  static_assert(kEnvelope.max_magnitude < std::numeric_limits<double>::infinity() &&
                kEnvelope.max_years < std::numeric_limits<double>::infinity());
  if (shared == kFaultNone && inputs_clean(v, floor)) return;

  // IEEE subnormals for the classification: under a pool participant's
  // DAZ a denormal input would read as zero (a domain fault instead of a
  // magnitude one).
  const std::uint32_t fp = clear_denormal_ftz();
  const bool shared_nonfinite = (shared & kFaultNonFinite) != 0;
  const bool repair = policy == SanitizePolicy::kClamp || policy == SanitizePolicy::kSkip;
  for (std::size_t i = 0; i < n; ++i) {
    const core::BsLane e = core::bs_lane(v, i);
    std::uint8_t bits = shared;
    bits |= classify_positive(e.spot, kEnvelope.max_magnitude, floor);
    bits |= classify_positive(e.strike, kEnvelope.max_magnitude, floor);
    bits |= classify_positive(e.years, kEnvelope.max_years, floor);
    if (bits == kFaultNone) continue;

    ++out.faulty;
    std::uint8_t* mask = mask_for(out, n);
    const bool nonfinite = ((bits & kFaultNonFinite) != 0) || shared_nonfinite;
    if (policy == SanitizePolicy::kClamp && !nonfinite) {
      core::set_bs_inputs(v, i, clamp_positive(e.spot, kEnvelope.max_magnitude, floor),
                          clamp_positive(e.strike, kEnvelope.max_magnitude, floor),
                          clamp_positive(e.years, kEnvelope.max_years, floor));
      bits |= kFaultClamped;
      ++out.clamped;
    } else if (repair) {
      core::set_bs_inputs(v, i, kPlaceholder.spot, kPlaceholder.strike, kPlaceholder.years);
      bits |= kFaultSkipped;
      ++out.skipped;
    }
    mask[i] = bits;
  }
  restore_fp_state(fp);
}

}  // namespace

void record_sanitize(const SanitizeReport& r) {
  static obs::Counter& scanned = obs::counter("robust.sanitize.scanned");
  static obs::Counter& faulty = obs::counter("robust.sanitize.faulty");
  static obs::Counter& clamped = obs::counter("robust.sanitize.clamped");
  static obs::Counter& skipped = obs::counter("robust.sanitize.skipped");
  scanned.add(r.scanned);
  faulty.add(r.faulty);
  clamped.add(r.clamped);
  skipped.add(r.skipped);
}

std::uint8_t classify(const core::OptionSpec& o) {
  std::uint8_t bits = kFaultNone;
  bits |= classify_positive(o.spot, kEnvelope.max_magnitude, kEnvelope.min_positive);
  bits |= classify_positive(o.strike, kEnvelope.max_magnitude, kEnvelope.min_positive);
  bits |= classify_positive(o.years, kEnvelope.max_years, kEnvelope.min_positive);
  bits |= classify_positive(o.vol, kEnvelope.max_vol, kEnvelope.min_positive);
  bits |= classify_rate(o.rate, kEnvelope.max_abs_rate);
  bits |= classify_rate(o.dividend, kEnvelope.max_abs_rate);
  return bits;
}

std::uint8_t sanitize_shared(core::PortfolioView& view, SanitizePolicy policy) {
  if (policy == SanitizePolicy::kOff || !core::is_bs(view.layout)) return kFaultNone;
  core::BsScalars s = core::bs_scalars(view);
  const std::uint8_t bits = sanitize_scalars(s, policy);
  core::set_bs_scalars(view, s);
  return bits;
}

void sanitize_range(const core::PortfolioView& view, std::uint8_t shared, SanitizePolicy policy,
                    SanitizeReport& out) {
  out.reset();
  if (policy == SanitizePolicy::kOff) return;
  if (core::is_bs(view.layout)) scan_bs(view, shared, policy, out);
}

void sanitize(core::PortfolioView& view, SanitizePolicy policy, SanitizeReport& out) {
  out.reset();
  if (policy == SanitizePolicy::kOff) return;

  switch (view.layout) {
    case core::Layout::kSpecs: {
      // Scan only: the view's specs are immutable; the engine prices a
      // sanitized arena copy (sanitize_specs) when this scan finds faults.
      const std::size_t n = view.specs.size();
      out.scanned = n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t bits = classify(view.specs[i]);
        if (bits == kFaultNone) continue;
        ++out.faulty;
        mask_for(out, n)[i] = bits;
      }
      break;
    }
    case core::Layout::kPaths:
      // A path count carries no per-item data to sanitize.
      break;
    default:
      sanitize_range(view, sanitize_shared(view, policy), policy, out);
      break;
  }
  record_sanitize(out);
}

void sanitize_specs(std::span<const core::OptionSpec> src, std::span<core::OptionSpec> dst,
                    SanitizePolicy policy, SanitizeReport& out) {
  out.reset();
  const std::size_t n = src.size();
  out.scanned = n;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t bits = classify(src[i]);
    if (bits == kFaultNone || policy == SanitizePolicy::kOff ||
        policy == SanitizePolicy::kReject) {
      dst[i] = src[i];
      if (bits != kFaultNone) {
        ++out.faulty;
        mask_for(out, n)[i] = bits;
      }
      continue;
    }
    ++out.faulty;
    if (policy == SanitizePolicy::kClamp && (bits & kFaultNonFinite) == 0) {
      dst[i] = clamp_spec(src[i]);
      bits |= kFaultClamped;
      ++out.clamped;
    } else {
      // kSkip, or a non-finite field under kClamp (nothing to clamp to):
      // price a benign placeholder, NaN the output afterwards.
      dst[i] = kPlaceholder;
      dst[i].type = src[i].type;  // keep the mask/result shape honest
      bits |= kFaultSkipped;
      ++out.skipped;
    }
    mask_for(out, n)[i] = bits;
  }
  // The engine always runs the sanitize() scan first (which counted
  // scanned/faulty); this pass only adds the repairs it performed.
  static obs::Counter& clamped = obs::counter("robust.sanitize.clamped");
  static obs::Counter& skipped = obs::counter("robust.sanitize.skipped");
  clamped.add(out.clamped);
  skipped.add(out.skipped);
}

}  // namespace finbench::robust
