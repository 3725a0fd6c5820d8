// Output guardrails. The finiteness scan is branch-cheap (one std::isfinite
// per output); the kFull no-arbitrage bounds cost two exponentials per
// option and only run for deterministic European vanilla pricers. Nothing
// here allocates.

#include "finbench/robust/guards.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "finbench/core/analytic.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/robust/sanitize.hpp"

#include "bs_scan.hpp"

namespace finbench::robust {

namespace {

void count_guard(std::size_t violations, std::size_t repaired) {
  static obs::Counter& viol = obs::counter("robust.guard.violations");
  static obs::Counter& rep = obs::counter("robust.guard.repaired");
  if (violations != 0) viol.add(violations);
  if (repaired != 0) rep.add(repaired);
}

bool masked_out(std::span<const std::uint8_t> mask, std::size_t i) {
  return !mask.empty() && (mask[i] & kFaultSkipped) != 0;
}

// No-arbitrage bounds of a European vanilla price, with relative slack:
//   max(0, fwd_lo) - tol  <=  call  <=  S e^{-qT} + tol
//   max(0, -fwd_lo) - tol <=  put   <=  K e^{-rT} + tol
// where fwd_lo = S e^{-qT} - K e^{-rT}. Returns true when `price` of the
// given type is inside its band.
bool in_bounds(double price, bool is_call, double spot, double strike, double years, double rate,
               double dividend) {
  const double df_s = spot * std::exp(-dividend * years);
  const double df_k = strike * std::exp(-rate * years);
  const double tol = kBoundSlack * (std::abs(df_s) + std::abs(df_k) + 1.0);
  const double fwd = df_s - df_k;
  if (is_call) {
    const double lo = fwd > 0.0 ? fwd : 0.0;
    return price >= lo - tol && price <= df_s + tol;
  }
  const double lo = fwd < 0.0 ? -fwd : 0.0;
  return price >= lo - tol && price <= df_k + tol;
}

}  // namespace

std::size_t guard_specs_range(std::span<const core::OptionSpec> specs,
                              std::span<const double> values, const GuardPolicy& policy,
                              bool statistical, std::span<const std::uint8_t> mask,
                              std::size_t mask_offset, std::size_t* first) {
  if (policy.mode == GuardMode::kOff) return 0;
  const bool bounds = policy.bounds_enabled(statistical) && specs.size() == values.size();
  std::size_t violations = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (masked_out(mask, mask_offset + i)) continue;  // deliberate NaN
    bool bad = !std::isfinite(values[i]);
    if (!bad && bounds) {
      const core::OptionSpec& o = specs[i];
      if (o.style == core::ExerciseStyle::kEuropean) {
        bad = !in_bounds(values[i], o.type == core::OptionType::kCall, o.spot, o.strike, o.years,
                         o.rate, o.dividend);
      }
    }
    if (bad) {
      if (violations == 0 && first != nullptr) *first = i;
      ++violations;
    }
  }
  count_guard(violations, 0);
  return violations;
}

namespace {

// Clean path of the finiteness guard: one branch-free pass testing
// |x| <= DBL_MAX on the bits (sign cleared), which fails exactly for
// +-Inf and NaN. Floats widen exactly.
bool outputs_finite(const core::PortfolioView& v) {
  constexpr std::uint64_t kAbs = 0x7fffffffffffffffull;
  constexpr std::uint64_t kMax = 0x7fefffffffffffffull;  // bits of DBL_MAX
  const auto bad = [](double call, double put) {
    return static_cast<std::uint64_t>((std::bit_cast<std::uint64_t>(call) & kAbs) > kMax) |
           static_cast<std::uint64_t>((std::bit_cast<std::uint64_t>(put) & kAbs) > kMax);
  };
  std::uint64_t acc = 0;
  switch (v.layout) {
    case core::Layout::kBsAos: {
      detail::AosPattern p;
      p.set(3, kAbs, 0, kMax);
      p.set(4, kAbs, 0, kMax);
      return p.clean(v.aos);
    }
    case core::Layout::kBsSoa:
      for (std::size_t i = 0; i < v.soa.size(); ++i) acc |= bad(v.soa.call[i], v.soa.put[i]);
      break;
    case core::Layout::kBsSoaF:
      for (std::size_t i = 0; i < v.sp.size(); ++i) acc |= bad(v.sp.call[i], v.sp.put[i]);
      break;
    case core::Layout::kBsBlocked: {
      const core::BsBlockedView& b = v.blocked;
      for (std::size_t blk = 0; blk < b.num_blocks(); ++blk) {
        const double* call = b.field(blk, 3);
        const double* put = b.field(blk, 4);
        const std::size_t lanes = std::min(core::kBsBlock, b.n - blk * core::kBsBlock);
        for (std::size_t ln = 0; ln < lanes; ++ln) acc |= bad(call[ln], put[ln]);
      }
      break;
    }
    default:
      break;
  }
  return acc == 0;
}

}  // namespace

std::size_t guard_and_repair_bs(const core::PortfolioView& view, const GuardPolicy& policy,
                                std::span<const std::uint8_t> mask) {
  if (policy.mode == GuardMode::kOff || !core::is_bs(view.layout)) return 0;
  // BS batch kernels price both legs of a European vanilla analytically:
  // deterministic, so kFull bounds apply. The f32 layout's extra rounding
  // is orders of magnitude inside the slack.
  const bool bounds = policy.mode == GuardMode::kFull;
  // A range with a non-finite output (including a sanitizer-skipped
  // option already NaN) falls through to the per-option scan, which
  // honors the mask.
  if (!bounds && outputs_finite(view)) return 0;
  const std::size_t n = view.size();
  const core::BsScalars s = core::bs_scalars(view);
  std::size_t violations = 0, repaired = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (masked_out(mask, i)) continue;
    const core::BsLane e = core::bs_lane(view, i);
    bool bad = !std::isfinite(e.call) || !std::isfinite(e.put);
    if (!bad && bounds) {
      bad = !in_bounds(e.call, /*is_call=*/true, e.spot, e.strike, e.years, s.rate, s.dividend) ||
            !in_bounds(e.put, /*is_call=*/false, e.spot, e.strike, e.years, s.rate, s.dividend);
    }
    if (!bad) continue;
    ++violations;
    const core::BsPrice p = core::black_scholes(e.spot, e.strike, e.years, s.rate, s.vol,
                                                s.dividend);
    if (std::isfinite(p.call) && std::isfinite(p.put)) {
      core::set_bs_outputs(view, i, p.call, p.put);
      ++repaired;
    }
  }
  count_guard(violations, repaired);
  return repaired;
}

}  // namespace finbench::robust
