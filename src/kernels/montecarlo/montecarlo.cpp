#include "finbench/kernels/montecarlo.hpp"

#include <cassert>
#include <cmath>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/scratch_pool.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/trace.hpp"
#include "finbench/rng/normal.hpp"
#include "finbench/simd/vec.hpp"
#include "finbench/vecmath/vecmath.hpp"

namespace finbench::kernels::mc {

namespace detail {

// Domain telemetry: total simulated paths across every MC entry point
// (options x paths per call). One relaxed atomic add per batch.
inline void count_paths(std::size_t paths) {
  static obs::Counter& c = obs::counter("mc.paths");
  c.add(paths);
}

}  // namespace detail

namespace {

struct PathParams {
  double v_rt_t;  // sigma * sqrt(T)
  double mu_t;    // (r - sigma^2/2) * T
  double df;      // exp(-r T)
  double sign;    // +1 call, -1 put
};

PathParams path_params(const core::OptionSpec& o) {
  return {o.vol * std::sqrt(o.years),
          (o.rate - o.dividend - 0.5 * o.vol * o.vol) * o.years, std::exp(-o.rate * o.years),
          o.type == core::OptionType::kCall ? 1.0 : -1.0};
}

McResult finalize(const PathParams& p, double v0, double v1, std::size_t npath) {
  McResult r;
  const double n = static_cast<double>(npath);
  const double mean = v0 / n;
  // Sample variance of the payoff; standard error of the mean.
  const double var = std::max(v1 / n - mean * mean, 0.0);
  r.price = p.df * mean;
  r.std_error = p.df * std::sqrt(var / n);
  return r;
}

}  // namespace

// --- Reference (Lis. 5, scalar) ---------------------------------------------

void price_reference_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                            std::size_t npath, std::span<McResult> out) {
  assert(z.size() >= npath && out.size() >= opts.size());
  detail::count_paths(opts.size() * npath);
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const PathParams p = path_params(opts[o]);
    double v0 = 0.0, v1 = 0.0;
    for (std::size_t i = 0; i < npath; ++i) {
      const double st = opts[o].spot * std::exp(p.v_rt_t * z[i] + p.mu_t);
      const double res = std::max(0.0, p.sign * (st - opts[o].strike));
      v0 += res;
      v1 += res * res;
    }
    out[o] = finalize(p, v0, v1, npath);
  }
}

// --- Basic: pragmas ----------------------------------------------------------

void price_basic_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                        std::size_t npath, std::span<McResult> out) {
  assert(z.size() >= npath && out.size() >= opts.size());
  detail::count_paths(opts.size() * npath);
  for (std::size_t o = 0; o < opts.size(); ++o) {
    FINBENCH_SPAN("mc.option");
    const PathParams p = path_params(opts[o]);
    const double spot = opts[o].spot, strike = opts[o].strike;
    double v0 = 0.0, v1 = 0.0;
    // Autovectorization + unroll: the compiler maps exp to its vector math
    // library (libmvec here, SVML in the paper) and splits the reductions.
#pragma omp simd reduction(+ : v0, v1)
    for (std::size_t i = 0; i < npath; ++i) {
      const double st = spot * std::exp(p.v_rt_t * z[i] + p.mu_t);
      const double res = std::max(0.0, p.sign * (st - strike));
      v0 += res;
      v1 += res * res;
    }
    out[o] = finalize(p, v0, v1, npath);
  }
}

// --- Optimized: explicit SIMD over paths --------------------------------------

namespace {

template <int W>
McMoments integrate_moments(const core::OptionSpec& opt, const double* z, std::size_t npath) {
  using V = simd::Vec<double, W>;
  const PathParams p = path_params(opt);
  const V spot(opt.spot), strike(opt.strike), vrt(p.v_rt_t), mu(p.mu_t), sign(p.sign);
  // Two independent accumulator pairs break the add latency chain.
  V v0a(0.0), v1a(0.0), v0b(0.0), v1b(0.0);
  std::size_t i = 0;
  for (; i + 2 * W <= npath; i += 2 * W) {
    const V za = V::loadu(z + i);
    const V zb = V::loadu(z + i + W);
    const V sta = spot * vecmath::exp(fmadd(vrt, za, mu));
    const V stb = spot * vecmath::exp(fmadd(vrt, zb, mu));
    const V ra = max(V(0.0), sign * (sta - strike));
    const V rb = max(V(0.0), sign * (stb - strike));
    v0a += ra;
    v1a = fmadd(ra, ra, v1a);
    v0b += rb;
    v1b = fmadd(rb, rb, v1b);
  }
  double v0 = hsum(v0a + v0b), v1 = hsum(v1a + v1b);
  for (; i < npath; ++i) {
    const double st = opt.spot * std::exp(p.v_rt_t * z[i] + p.mu_t);
    const double res = std::max(0.0, p.sign * (st - opt.strike));
    v0 += res;
    v1 += res * res;
  }
  return {v0, v1};
}

template <int W>
McResult integrate_paths(const core::OptionSpec& opt, const double* z, std::size_t npath) {
  const McMoments m = integrate_moments<W>(opt, z, npath);
  return finalize(path_params(opt), m.v0, m.v1, npath);
}

template <int W>
void optimized_stream_width(std::span<const core::OptionSpec> opts, std::span<const double> z,
                            std::size_t npath, std::span<McResult> out) {
  for (std::size_t o = 0; o < opts.size(); ++o) {
    FINBENCH_SPAN("mc.option");
    out[o] = integrate_paths<W>(opts[o], z.data(), npath);
  }
}

template <int W>
void optimized_computed_width(std::span<const core::OptionSpec> opts, std::size_t npath,
                              std::uint64_t seed, std::span<McResult> out,
                              std::uint64_t stream_base, core::ScratchPool* scratch) {
  using V = simd::Vec<double, W>;
  core::ScratchBuf zb(scratch, kRngChunk);
  double* const zbuf = zb.data();
  for (std::size_t o = 0; o < opts.size(); ++o) {
    FINBENCH_SPAN("mc.option");
    const core::OptionSpec& opt = opts[o];
    const PathParams p = path_params(opt);
    const V spot(opt.spot), strike(opt.strike), vrt(p.v_rt_t), mu(p.mu_t), sign(p.sign);
    rng::NormalStream stream(seed, stream_base + static_cast<std::uint64_t>(o));
    V v0v(0.0), v1v(0.0);
    double v0 = 0.0, v1 = 0.0;
    std::size_t done = 0;
    while (done < npath) {
      const std::size_t chunk = std::min(kRngChunk, npath - done);
      stream.fill({zbuf, chunk});
      std::size_t i = 0;
      for (; i + W <= chunk; i += W) {
        const V zv = V::load(zbuf + i);
        const V st = spot * vecmath::exp(fmadd(vrt, zv, mu));
        const V res = max(V(0.0), sign * (st - strike));
        v0v += res;
        v1v = fmadd(res, res, v1v);
      }
      for (; i < chunk; ++i) {
        const double st = opt.spot * std::exp(p.v_rt_t * zbuf[i] + p.mu_t);
        const double res = std::max(0.0, p.sign * (st - opt.strike));
        v0 += res;
        v1 += res * res;
      }
      done += chunk;
    }
    out[o] = finalize(p, v0 + hsum(v0v), v1 + hsum(v1v), npath);
  }
}

}  // namespace

void price_optimized_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                            std::size_t npath, std::span<McResult> out, Width w) {
  assert(z.size() >= npath && out.size() >= opts.size());
  detail::count_paths(opts.size() * npath);
  simd::with_lanes<double>(w, [&](auto L) { optimized_stream_width<L>(opts, z, npath, out); });
}

McMoments integrate_stream_partial(const core::OptionSpec& opt, std::span<const double> z,
                                   Width w) {
  return simd::with_lanes<double>(
      w, [&](auto L) { return integrate_moments<L>(opt, z.data(), z.size()); });
}

McResult finalize_moments(const core::OptionSpec& opt, const McMoments& m, std::size_t npath) {
  return finalize(path_params(opt), m.v0, m.v1, npath);
}

void price_reference_computed(std::span<const core::OptionSpec> opts, std::size_t npath,
                              std::uint64_t seed, std::span<McResult> out,
                              std::uint64_t stream_base, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  detail::count_paths(opts.size() * npath);
  core::ScratchBuf zb(scratch, kRngChunk);
  double* const zbuf = zb.data();
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const PathParams p = path_params(opts[o]);
    rng::NormalStream stream(seed, stream_base + o);
    double v0 = 0.0, v1 = 0.0;
    std::size_t done = 0;
    while (done < npath) {
      const std::size_t chunk = std::min(kRngChunk, npath - done);
      stream.fill({zbuf, chunk});
      for (std::size_t i = 0; i < chunk; ++i) {
        const double st = opts[o].spot * std::exp(p.v_rt_t * zbuf[i] + p.mu_t);
        const double res = std::max(0.0, p.sign * (st - opts[o].strike));
        v0 += res;
        v1 += res * res;
      }
      done += chunk;
    }
    out[o] = finalize(p, v0, v1, npath);
  }
}

void price_optimized_computed(std::span<const core::OptionSpec> opts, std::size_t npath,
                              std::uint64_t seed, std::span<McResult> out, Width w,
                              std::uint64_t stream_base, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  detail::count_paths(opts.size() * npath);
  simd::with_lanes<double>(w, [&](auto L) {
    optimized_computed_width<L>(opts, npath, seed, out, stream_base, scratch);
  });
}

// --- Variance reduction ---------------------------------------------------------

void price_variance_reduced(std::span<const core::OptionSpec> opts, std::size_t npath,
                            std::uint64_t seed, std::span<McResult> out, bool antithetic,
                            bool control_variate, std::uint64_t stream_base,
                            core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  detail::count_paths(opts.size() * npath);
  core::ScratchBuf zb(scratch, kRngChunk);
  double* const zbuf = zb.data();
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const core::OptionSpec& opt = opts[o];
    const PathParams p = path_params(opt);
    rng::NormalStream stream(seed, stream_base + static_cast<std::uint64_t>(o));

    // One observation per draw: the (pair-averaged, when antithetic)
    // payoff and control. Pair averaging bakes the negative within-pair
    // covariance into the sample variance, so the reported SE reflects
    // the true variance reduction.
    double sp = 0, spp = 0, sc = 0, scc = 0, spc = 0;
    const std::size_t draws = antithetic ? (npath + 1) / 2 : npath;
    std::size_t done = 0;
    while (done < draws) {
      const std::size_t chunk = std::min(kRngChunk, draws - done);
      stream.fill({zbuf, chunk});
      for (std::size_t i = 0; i < chunk; ++i) {
        const double st_plus = opt.spot * std::exp(p.v_rt_t * zbuf[i] + p.mu_t);
        double pay = std::max(0.0, p.sign * (st_plus - opt.strike));
        double ctrl = st_plus;
        if (antithetic) {
          const double st_minus = opt.spot * std::exp(-p.v_rt_t * zbuf[i] + p.mu_t);
          pay = 0.5 * (pay + std::max(0.0, p.sign * (st_minus - opt.strike)));
          ctrl = 0.5 * (ctrl + st_minus);
        }
        sp += pay;
        spp += pay * pay;
        sc += ctrl;
        scc += ctrl * ctrl;
        spc += pay * ctrl;
      }
      done += chunk;
    }
    const double n = static_cast<double>(draws);
    const double mean_p = sp / n, mean_c = sc / n;
    double var_p = std::max(spp / n - mean_p * mean_p, 0.0);
    double est = mean_p;
    if (control_variate) {
      const double var_c = std::max(scc / n - mean_c * mean_c, 0.0);
      const double cov = spc / n - mean_p * mean_c;
      if (var_c > 1e-300) {
        const double beta = cov / var_c;
        // E[control] = S e^{(r-q)T} exactly (also the mean of the pair
        // average): subtract the correlated component.
        const double e_st = opt.spot * std::exp((opt.rate - opt.dividend) * opt.years);
        est = mean_p - beta * (mean_c - e_st);
        var_p = std::max(var_p - cov * cov / var_c, 0.0);
      }
    }
    McResult r;
    r.price = p.df * est;
    r.std_error = p.df * std::sqrt(var_p / n);
    out[o] = r;
  }
}

// --- Pathwise greeks -------------------------------------------------------------

void greeks_pathwise(std::span<const core::OptionSpec> opts, std::size_t npath,
                     std::uint64_t seed, std::span<McGreeks> out) {
  assert(out.size() >= opts.size());
  arch::AlignedVector<double> zbuf(kRngChunk);
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const core::OptionSpec& opt = opts[o];
    const PathParams p = path_params(opt);
    const bool call = opt.type == core::OptionType::kCall;
    const double sig_rt = p.v_rt_t;
    const double drift_vega = (opt.rate - opt.dividend + 0.5 * opt.vol * opt.vol) *
                              opt.years;  // d S_T / d sigma uses this
    rng::NormalStream stream(seed, static_cast<std::uint64_t>(o));

    double sp = 0, sd = 0, sdd = 0, sv = 0, svv = 0, sg = 0;
    std::size_t done = 0;
    while (done < npath) {
      const std::size_t chunk = std::min(kRngChunk, npath - done);
      stream.fill({zbuf.data(), chunk});
      for (std::size_t i = 0; i < chunk; ++i) {
        const double z = zbuf[i];
        const double st = opt.spot * std::exp(p.v_rt_t * z + p.mu_t);
        const bool itm = call ? st > opt.strike : st < opt.strike;
        const double sign = call ? 1.0 : -1.0;
        const double pay = std::max(0.0, sign * (st - opt.strike));
        sp += pay;
        if (itm) {
          // Pathwise delta: d payoff / d S0 = sign * S_T / S0 on ITM paths.
          const double d = sign * st / opt.spot;
          sd += d;
          sdd += d * d;
          // Pathwise vega: d S_T / d sigma = S_T (ln(S_T/S0) - drift)/sigma.
          const double dst_dsig =
              st * (std::log(st / opt.spot) - drift_vega) / opt.vol;
          const double v = sign * dst_dsig;
          sv += v;
          svv += v * v;
        }
        // Likelihood-ratio gamma (payoff-kink-safe, unbiased).
        const double w = ((z * z - 1.0) / (opt.spot * opt.spot * sig_rt * sig_rt)) -
                         z / (opt.spot * opt.spot * sig_rt);
        sg += pay * w;
      }
      done += chunk;
    }
    const double n = static_cast<double>(npath);
    McGreeks g;
    g.price = p.df * sp / n;
    g.delta = p.df * sd / n;
    g.vega = p.df * sv / n;
    g.gamma = p.df * sg / n;
    const double md = sd / n, mv = sv / n;
    g.delta_se = p.df * std::sqrt(std::max(sdd / n - md * md, 0.0) / n);
    g.vega_se = p.df * std::sqrt(std::max(svv / n - mv * mv, 0.0) / n);
    out[o] = g;
  }
}

}  // namespace finbench::kernels::mc
