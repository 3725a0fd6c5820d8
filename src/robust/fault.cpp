// Deterministic fault injection. Hit decisions hash (seed, site, index)
// through splitmix64 into a uniform in [0, 1) compared against the rate —
// pure, stateless, identical for every thread count and schedule, so a
// failing injected run replays exactly from its spec string.

#include "finbench/robust/fault.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "finbench/obs/metrics.hpp"

namespace finbench::robust {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from the top 53 bits.
double to_unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

constexpr double kDenormal = 4.9e-324;  // smallest positive subnormal double

// Longest slow_ms a plan accepts (~32 years): its sleep converts to the
// clock's int64 nanoseconds (at most ~9.2e12 ms) without overflow.
constexpr double kMaxSlowMs = 1e12;

// The rotation of input poisons: every adversarial class the sanitizer
// must catch — NaN, +Inf, negative domain, denormal magnitude.
enum PoisonKind { kNanSpot, kInfStrike, kNegYears, kNanVolOrYears, kDenormalSpot, kNumPoisons };

}  // namespace

bool FaultPlan::hits(std::uint32_t site, std::uint64_t index, double rate) const {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const std::uint64_t h =
      splitmix64(seed ^ splitmix64(index ^ (static_cast<std::uint64_t>(site) << 56)));
  return to_unit(h) < rate;
}

Expected<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view item = spec.substr(pos, end - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::invalid_argument("fault spec: expected key=value at '" + std::string(item) +
                                      "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    const char* vb = val.data();
    const char* ve = val.data() + val.size();
    bool parsed = false;
    if (key == "seed") {
      auto [p, ec] = std::from_chars(vb, ve, plan.seed);
      parsed = ec == std::errc{} && p == ve;
    } else {
      double* target = nullptr;
      if (key == "poison") target = &plan.poison;
      else if (key == "corrupt") target = &plan.corrupt;
      else if (key == "throw") target = &plan.throw_rate;
      else if (key == "slow") target = &plan.slow;
      else if (key == "slow_ms") target = &plan.slow_ms;
      if (target == nullptr) {
        return Status::invalid_argument("fault spec: unknown key '" + std::string(key) + "'");
      }
      auto [p, ec] = std::from_chars(vb, ve, *target);
      parsed = ec == std::errc{} && p == ve && std::isfinite(*target) && *target >= 0.0 &&
               (target != &plan.slow_ms || *target <= kMaxSlowMs);
    }
    if (!parsed) {
      return Status::invalid_argument("fault spec: bad value for '" + std::string(key) + "': '" +
                                      std::string(val) + "'");
    }
    pos = end + 1;
  }
  return plan;
}

std::string FaultPlan::to_spec() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "seed=%llu,poison=%g,corrupt=%g,throw=%g,slow=%g,slow_ms=%g",
                static_cast<unsigned long long>(seed), poison, corrupt, throw_rate, slow, slow_ms);
  return buf;
}

std::size_t inject_input_faults(std::span<core::OptionSpec> specs, const FaultPlan& plan) {
  std::size_t poisoned = 0;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!plan.hits(0, i, plan.poison)) continue;
    switch (splitmix64(plan.seed ^ (i * 2 + 1)) % kNumPoisons) {
      case kNanSpot: specs[i].spot = kNan; break;
      case kInfStrike: specs[i].strike = kInf; break;
      case kNegYears: specs[i].years = -1.0; break;
      case kNanVolOrYears: specs[i].vol = kNan; break;
      case kDenormalSpot: specs[i].spot = kDenormal; break;
      default: break;
    }
    ++poisoned;
  }
  static obs::Counter& c = obs::counter("robust.inject.poisoned");
  c.add(poisoned);
  return poisoned;
}

std::size_t inject_input_faults(const core::PortfolioView& bs_view, const FaultPlan& plan) {
  if (!core::is_bs(bs_view.layout)) return 0;
  std::size_t poisoned = 0;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = bs_view.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!plan.hits(0, i, plan.poison)) continue;
    core::BsLane e = core::bs_lane(bs_view, i);
    switch (splitmix64(plan.seed ^ (i * 2 + 1)) % kNumPoisons) {
      case kNanSpot: e.spot = kNan; break;
      case kInfStrike: e.strike = kInf; break;
      case kNegYears: e.years = -1.0; break;
      case kNanVolOrYears: e.years = kNan; break;  // vol is batch-shared here
      case kDenormalSpot: e.spot = kDenormal; break;
      default: break;
    }
    core::set_bs_inputs(bs_view, i, e.spot, e.strike, e.years);
    ++poisoned;
  }
  static obs::Counter& c = obs::counter("robust.inject.poisoned");
  c.add(poisoned);
  return poisoned;
}

}  // namespace finbench::robust
