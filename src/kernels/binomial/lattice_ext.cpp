#include "finbench/kernels/lattice.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/analytic.hpp"

namespace finbench::kernels::lattice {

namespace {

double payoff(const core::OptionSpec& o, double s) {
  return o.type == core::OptionType::kCall ? std::max(s - o.strike, 0.0)
                                           : std::max(o.strike - s, 0.0);
}

// Peizer–Pratt method-2 inversion: maps a normal quantile z to a binomial
// probability for n trials (n odd).
double peizer_pratt(double z, int n) {
  const double denom = n + 1.0 / 3.0 + 0.1 / (n + 1.0);
  const double arg = (z / denom) * (z / denom) * (n + 1.0 / 6.0);
  const double root = std::sqrt(std::max(0.0, 1.0 - std::exp(-arg)));
  return 0.5 + (z >= 0 ? 0.5 : -0.5) * root;
}

}  // namespace

double price_leisen_reimer(const core::OptionSpec& o, int steps) {
  if (o.vol <= 0 || o.years <= 0) {
    throw std::invalid_argument("leisen-reimer: vol and years must be positive");
  }
  const int n = steps | 1;  // next odd
  const double dt = o.years / n;
  const double sig_rt = o.vol * std::sqrt(o.years);
  const double d1 = (std::log(o.spot / o.strike) +
                     (o.rate - o.dividend + 0.5 * o.vol * o.vol) * o.years) /
                    sig_rt;
  const double d2 = d1 - sig_rt;

  const double p = peizer_pratt(d2, n);        // risk-neutral up-probability
  const double pp = peizer_pratt(d1, n);       // stock-measure probability
  const double growth = std::exp((o.rate - o.dividend) * dt);
  const double u = growth * pp / p;
  const double d = (growth - p * u) / (1.0 - p);
  const double df = std::exp(-o.rate * dt);
  const double pu_df = p * df;
  const double pd_df = (1.0 - p) * df;

  arch::AlignedVector<double> value(n + 1);
  double s = o.spot * std::pow(d, n);
  const double ratio = u / d;
  for (int j = 0; j <= n; ++j) {
    value[j] = payoff(o, s);
    s *= ratio;
  }

  const bool american = o.style == core::ExerciseStyle::kAmerican;
  for (int i = n; i > 0; --i) {
    double node_s = o.spot * std::pow(d, i - 1);
    for (int j = 0; j <= i - 1; ++j) {
      double v = pu_df * value[j + 1] + pd_df * value[j];
      if (american) v = std::max(v, payoff(o, node_s));
      value[j] = v;
      node_s *= ratio;
    }
  }
  return value[0];
}

double price_trinomial(const core::OptionSpec& o, int steps) {
  if (o.vol <= 0 || o.years <= 0) {
    throw std::invalid_argument("trinomial: vol and years must be positive");
  }
  const int n = steps;
  const double dt = o.years / n;
  const double lambda = std::sqrt(3.0);
  const double dx = lambda * o.vol * std::sqrt(dt);
  const double nu = o.rate - o.dividend - 0.5 * o.vol * o.vol;
  // Kamrad–Ritchken probabilities for log-price moves {+dx, 0, -dx}.
  const double a = nu * dt / dx;
  const double b = o.vol * o.vol * dt / (dx * dx);
  const double pu = 0.5 * (b + a * a + a);
  const double pm = 1.0 - b - a * a;
  const double pd = 0.5 * (b + a * a - a);
  if (pu < 0 || pm < 0 || pd < 0) {
    throw std::invalid_argument("trinomial: negative branch probability; increase steps");
  }
  const double df = std::exp(-o.rate * dt);
  const double pu_df = pu * df, pm_df = pm * df, pd_df = pd * df;

  // Level i has 2i+1 nodes; index j in [0, 2i] maps to log-move (j - i)*dx.
  arch::AlignedVector<double> value(2 * n + 1);
  const double edx = std::exp(dx);
  {
    double s = o.spot * std::exp(-n * dx);
    for (int j = 0; j <= 2 * n; ++j) {
      value[j] = payoff(o, s);
      s *= edx;
    }
  }
  const bool american = o.style == core::ExerciseStyle::kAmerican;
  for (int i = n; i > 0; --i) {
    double node_s = o.spot * std::exp(-(i - 1) * dx);
    for (int j = 0; j <= 2 * (i - 1); ++j) {
      // Children of node j at level i-1 are j, j+1, j+2 at level i.
      double v = pd_df * value[j] + pm_df * value[j + 1] + pu_df * value[j + 2];
      if (american) v = std::max(v, payoff(o, node_s));
      value[j] = v;
      node_s *= edx;
    }
  }
  return value[0];
}

double price_bbs(const core::OptionSpec& o, int steps) {
  if (o.vol <= 0 || o.years <= 0) {
    throw std::invalid_argument("bbs: vol and years must be positive");
  }
  const int n = std::max(steps, 2);
  const double dt = o.years / n;
  const double u = std::exp(o.vol * std::sqrt(dt));
  const double d = 1.0 / u;
  const double growth = std::exp((o.rate - o.dividend) * dt);
  const double p = (growth - d) / (u - d);
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("bbs: risk-neutral probability outside [0,1]");
  }
  const double df = std::exp(-o.rate * dt);
  const double pu_df = p * df;
  const double pd_df = (1.0 - p) * df;
  const bool call = o.type == core::OptionType::kCall;
  const bool american = o.style == core::ExerciseStyle::kAmerican;
  const double ratio = u / d;

  // Level n-1: value each node with the one-period Black–Scholes price
  // (the smoothing that removes the strike-kink sawtooth).
  arch::AlignedVector<double> value(n);
  double s = o.spot * std::pow(d, n - 1);
  for (int j = 0; j <= n - 1; ++j) {
    const core::BsPrice bs = core::black_scholes(s, o.strike, dt, o.rate, o.vol, o.dividend);
    double v = call ? bs.call : bs.put;
    if (american) v = std::max(v, payoff(o, s));
    value[j] = v;
    s *= ratio;
  }
  for (int i = n - 1; i > 0; --i) {
    double node_s = o.spot * std::pow(d, i - 1);
    for (int j = 0; j <= i - 1; ++j) {
      double v = pu_df * value[j + 1] + pd_df * value[j];
      if (american) v = std::max(v, payoff(o, node_s));
      value[j] = v;
      node_s *= ratio;
    }
  }
  return value[0];
}

double price_bbsr(const core::OptionSpec& o, int steps) {
  const int n = std::max(steps, 4);
  // Two-point Richardson extrapolation of the O(1/N) smoothed error.
  return 2.0 * price_bbs(o, n) - price_bbs(o, n / 2);
}

double price_bermudan(const core::OptionSpec& o, int steps, int num_exercise_dates) {
  if (o.vol <= 0 || o.years <= 0) {
    throw std::invalid_argument("bermudan: vol and years must be positive");
  }
  if (num_exercise_dates < 1 || num_exercise_dates > steps) {
    throw std::invalid_argument("bermudan: need 1 <= exercise dates <= steps");
  }
  const int n = steps;
  const double dt = o.years / n;
  const double u = std::exp(o.vol * std::sqrt(dt));
  const double d = 1.0 / u;
  const double growth = std::exp((o.rate - o.dividend) * dt);
  const double p = (growth - d) / (u - d);
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("bermudan: risk-neutral probability outside [0,1]");
  }
  const double df_step = std::exp(-o.rate * dt);
  const double pu_df = p * df_step, pd_df = (1.0 - p) * df_step;
  const double ratio = u / d;

  // Exercise permitted at lattice levels round(k * n / dates), k = 1..dates
  // (expiry is always an exercise date via the terminal payoff).
  std::vector<bool> can_exercise(n + 1, false);
  for (int k = 1; k <= num_exercise_dates; ++k) {
    can_exercise[static_cast<int>(std::lround(static_cast<double>(k) * n /
                                              num_exercise_dates))] = true;
  }

  arch::AlignedVector<double> value(n + 1);
  double s = o.spot * std::pow(d, n);
  for (int j = 0; j <= n; ++j) {
    value[j] = payoff(o, s);
    s *= ratio;
  }
  for (int i = n; i > 0; --i) {
    const bool exercisable = can_exercise[i - 1];
    double node_s = o.spot * std::pow(d, i - 1);
    for (int j = 0; j <= i - 1; ++j) {
      double v = pu_df * value[j + 1] + pd_df * value[j];
      if (exercisable) v = std::max(v, payoff(o, node_s));
      value[j] = v;
      node_s *= ratio;
    }
  }
  return value[0];
}

LatticeGreeks greeks_crr(const core::OptionSpec& o, int steps) {
  if (o.vol <= 0 || o.years <= 0) {
    throw std::invalid_argument("lattice greeks: vol and years must be positive");
  }
  const int n = std::max(steps, 2);
  const double dt = o.years / n;
  const double u = std::exp(o.vol * std::sqrt(dt));
  const double d = 1.0 / u;
  const double growth = std::exp((o.rate - o.dividend) * dt);
  const double p = (growth - d) / (u - d);
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("lattice greeks: risk-neutral probability outside [0,1]");
  }
  const double df = std::exp(-o.rate * dt);
  const double pu_df = p * df, pd_df = (1.0 - p) * df;
  const double ratio = u / d;
  const bool american = o.style == core::ExerciseStyle::kAmerican;

  arch::AlignedVector<double> value(n + 1);
  double s = o.spot * std::pow(d, n);
  for (int j = 0; j <= n; ++j) {
    value[j] = payoff(o, s);
    s *= ratio;
  }
  double v2[3] = {0, 0, 0}, v1[2] = {0, 0}, v0 = 0;
  for (int i = n; i > 0; --i) {
    double node_s = o.spot * std::pow(d, i - 1);
    for (int j = 0; j <= i - 1; ++j) {
      double v = pu_df * value[j + 1] + pd_df * value[j];
      if (american) v = std::max(v, payoff(o, node_s));
      value[j] = v;
      node_s *= ratio;
    }
    if (i - 1 == 2) {
      v2[0] = value[0];
      v2[1] = value[1];
      v2[2] = value[2];
    } else if (i - 1 == 1) {
      v1[0] = value[0];
      v1[1] = value[1];
    }
  }
  v0 = value[0];

  LatticeGreeks g;
  g.price = v0;
  const double su = o.spot * u, sd = o.spot * d;
  g.delta = (v1[1] - v1[0]) / (su - sd);
  const double suu = o.spot * u * u, sdd = o.spot * d * d;
  const double d_up = (v2[2] - v2[1]) / (suu - o.spot);
  const double d_dn = (v2[1] - v2[0]) / (o.spot - sdd);
  g.gamma = (d_up - d_dn) / (0.5 * (suu - sdd));
  // Node (2,1) has spot S again, 2 dt later: forward difference in time.
  g.theta = (v2[1] - v0) / (2.0 * dt);
  return g;
}

double price_geske_johnson(const core::OptionSpec& o, int steps) {
  // Bermudan prices with 1, 2, 3 equally spaced exercise rights. Steps is
  // rounded to a multiple of 6 so all three date sets sit on lattice nodes.
  const int n = std::max((steps / 6) * 6, 6);
  const double p1 = price_bermudan(o, n, 1);
  const double p2 = price_bermudan(o, n, 2);
  const double p3 = price_bermudan(o, n, 3);
  // Three-point Richardson in 1/d (Geske & Johnson 1984):
  // P ~ p3 + 7/2 (p3 - p2) - 1/2 (p2 - p1).
  return p3 + 3.5 * (p3 - p2) - 0.5 * (p2 - p1);
}

void price_leisen_reimer_batch(std::span<const core::OptionSpec> opts, int steps,
                               std::span<double> out) {
  assert(out.size() >= opts.size());
  for (std::size_t i = 0; i < opts.size(); ++i) out[i] = price_leisen_reimer(opts[i], steps);
}

void price_trinomial_batch(std::span<const core::OptionSpec> opts, int steps,
                           std::span<double> out) {
  assert(out.size() >= opts.size());
  for (std::size_t i = 0; i < opts.size(); ++i) out[i] = price_trinomial(opts[i], steps);
}

}  // namespace finbench::kernels::lattice
