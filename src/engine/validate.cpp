// Registry self-validation. Each variant prices a canonical deterministic
// workload through its run_batch adapter and through its linked reference;
// agreement is judged by the variant's registered tolerance. The same
// facility backs tests/test_engine.cpp and `pricectl --validate`.

#include "finbench/engine/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "finbench/core/workload.hpp"
#include "variants.hpp"

namespace finbench::engine {

namespace {

struct Outputs {
  std::vector<double> values;
  std::vector<double> std_errors;
};

// Shared knobs, deliberately small: validation runs inside the test suite.
constexpr std::uint64_t kSeed = 9;
constexpr int kBinomialSteps = 256;
constexpr std::size_t kMcPaths = 16384;
constexpr int kCnSteps = 128;
constexpr int kCnPrices = 65;
constexpr int kBridgeDepth = 6;

PricingRequest knobs_for(const VariantInfo& v) {
  PricingRequest req;
  req.kernel_id = v.id;
  req.seed = kSeed;
  req.steps = v.kernel == "cn" ? kCnSteps : kBinomialSteps;
  req.npath = kMcPaths;
  req.cn_num_prices = kCnPrices;
  req.bridge_depth = kBridgeDepth;
  return req;
}

// The per-family canonical workload: identical for a variant and its
// reference, restricted to what the narrower of the two supports.
std::vector<core::OptionSpec> specs_for(const VariantInfo& v, std::size_t n) {
  core::SingleOptionWorkloadParams p;
  if (v.kernel == "cn") {
    n = std::min<std::size_t>(n, 8);
    p.style = core::ExerciseStyle::kAmerican;
    p.vol_min = 0.2;
    p.vol_max = 0.4;
  } else if (v.kernel == "mc") {
    n = std::min<std::size_t>(n, 16);
  } else {  // binomial
    n = std::min<std::size_t>(n, 32);
    p.style = v.european_only ? core::ExerciseStyle::kEuropean : core::ExerciseStyle::kAmerican;
  }
  return core::make_option_workload(n, kSeed, p);
}

Outputs run_bs(const VariantInfo& v, std::size_t n) {
  PricingRequest req = knobs_for(v);
  PricingResult res;
  Outputs out;
  // One portfolio constructor covers every BS layout — all derive from the
  // same AOS-ordered generator draw, so a variant and its reference see
  // bitwise-identical inputs regardless of their native layouts.
  core::Portfolio pf = core::Portfolio::bs(n, v.layout, kSeed);
  req.portfolio = pf.view();
  v.run_batch(req, req.portfolio, res);
  const core::PortfolioView& view = pf.view();
  for (std::size_t i = 0; i < view.size(); ++i) {
    const core::BsLane l = core::bs_lane(view, i);
    out.values.push_back(l.call);
    out.values.push_back(l.put);
  }
  return out;
}

// Run `v` on the canonical workload for comparison subject `subject` (the
// non-reference variant, which decides workload restrictions).
Outputs run_one(const VariantInfo& v, const VariantInfo& subject, std::size_t n) {
  if (core::is_bs(v.layout)) return run_bs(v, n);
  PricingRequest req = knobs_for(subject);
  req.kernel_id = v.id;
  PricingResult res;
  if (v.layout == Layout::kPaths) {
    req.portfolio =
        core::paths_view(subject.statistical ? 8192 : std::max<std::size_t>(n, 256));
    v.run_batch(req, req.portfolio, res);
    return {std::move(res.values), std::move(res.std_errors)};
  }
  const auto specs = specs_for(subject, n);
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  v.run_batch(req, req.portfolio, res);
  return {std::move(res.values), std::move(res.std_errors)};
}

double mean(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v;
  return x.empty() ? 0.0 : s / static_cast<double>(x.size());
}

}  // namespace

ValidationReport validate_variant(const std::string& id, std::size_t nopt) {
  const VariantInfo* v = Registry::instance().find(id);
  if (!v) throw std::invalid_argument("validate: unknown variant '" + id + "'");
  ValidationReport rep;
  rep.id = id;
  rep.reference_id = v->reference_id;
  rep.tolerance = v->tolerance;
  if (v->reference_id.empty()) {
    rep.ok = true;
    rep.skipped = true;  // this IS a reference anchor
    return rep;
  }
  const VariantInfo* ref = Registry::instance().find(v->reference_id);
  if (!ref) {
    rep.detail = "dangling reference_id '" + v->reference_id + "'";
    return rep;
  }

  const Outputs got = run_one(*v, *v, nopt);
  const Outputs want = run_one(*ref, *v, nopt);
  rep.items = got.values.size();
  if (got.values.empty()) {
    rep.detail = "variant produced no outputs";
    return rep;
  }

  if (v->statistical) {
    if (!got.std_errors.empty() && !want.std_errors.empty()) {
      // Different estimator, same quantity: agree within error bands.
      double worst = 0.0;
      std::size_t worst_i = 0;
      for (std::size_t i = 0; i < got.values.size(); ++i) {
        const double band = v->tolerance * std::max(1.0, std::fabs(want.values[i])) +
                            6.0 * (got.std_errors[i] + want.std_errors[i]);
        const double excess = std::fabs(got.values[i] - want.values[i]) - band;
        if (excess > worst) {
          worst = excess;
          worst_i = i;
        }
      }
      rep.mean_abs_err = std::fabs(mean(got.values) - mean(want.values));
      rep.ok = worst <= 0.0;
      if (!rep.ok) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "item %zu outside 6-sigma band by %.3g", worst_i, worst);
        rep.detail = buf;
      }
      return rep;
    }
    // Own random draws, no per-item error estimate: batch means agree.
    rep.mean_abs_err = std::fabs(mean(got.values) - mean(want.values));
    rep.ok = rep.mean_abs_err <= v->tolerance;
    if (!rep.ok) rep.detail = "batch means differ beyond the tolerance band";
    return rep;
  }

  if (got.values.size() != want.values.size()) {
    rep.detail = "output size mismatch vs reference";
    return rep;
  }
  double worst = 0.0;
  std::size_t worst_i = 0;
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    const double rel =
        std::fabs(got.values[i] - want.values[i]) / std::max(1.0, std::fabs(want.values[i]));
    if (rel > worst) {
      worst = rel;
      worst_i = i;
    }
  }
  rep.max_rel_err = worst;
  rep.ok = worst <= v->tolerance;
  if (!rep.ok) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "item %zu: rel err %.3g > tol %.3g (got %.12g want %.12g)",
                  worst_i, worst, v->tolerance, got.values[worst_i], want.values[worst_i]);
    rep.detail = buf;
  }
  return rep;
}

std::vector<ValidationReport> validate_all(std::size_t nopt) {
  std::vector<ValidationReport> out;
  for (const std::string& id : Registry::instance().ids()) {
    out.push_back(validate_variant(id, nopt));
  }
  return out;
}

}  // namespace finbench::engine
