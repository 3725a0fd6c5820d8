#include "finbench/kernels/montecarlo.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "finbench/core/scratch_pool.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/trace.hpp"
#include "finbench/rng/normal.hpp"
#include "finbench/simd/vec.hpp"
#include "finbench/vecmath/vecmath.hpp"

namespace finbench::kernels::mc {

namespace {

// Every entry point starts here: rejects an empty path count and records
// the batch's options x paths in the "mc.paths" domain counter (one
// relaxed atomic add per call).
void begin_batch(std::size_t options, std::size_t npath) {
  if (npath == 0) throw std::invalid_argument("monte carlo: npath must be at least 1");
  static obs::Counter& c = obs::counter("mc.paths");
  c.add(options * npath);
}

// One option's terminal-value model: S_T = S exp(sigma sqrt(T) z + mu T),
// its payoff, and the discounted estimate from payoff moments.
struct PathModel {
  explicit PathModel(const core::OptionSpec& o)
      : spot(o.spot),
        strike(o.strike),
        v_rt_t(o.vol * std::sqrt(o.years)),
        mu_t((o.rate - o.dividend - 0.5 * o.vol * o.vol) * o.years),
        df(std::exp(-o.rate * o.years)),
        sign(o.type == core::OptionType::kCall ? 1.0 : -1.0) {}

  double terminal(double z) const { return spot * std::exp(v_rt_t * z + mu_t); }
  double payoff(double st) const { return std::max(0.0, sign * (st - strike)); }

  // Payoff moments of the paths z[0, n), added in path order (Lis. 5).
  void accumulate(const double* z, std::size_t n, McMoments& m) const {
    for (std::size_t i = 0; i < n; ++i) {
      const double res = payoff(terminal(z[i]));
      m.v0 += res;
      m.v1 += res * res;
    }
  }

  // Discounted mean and standard error of n observations.
  McResult discount(double mean, double var, double n) const {
    return {df * mean, df * std::sqrt(var / n)};
  }
  McResult finalize(const McMoments& m, std::size_t npath) const {
    const double n = static_cast<double>(npath);
    const double mean = m.v0 / n;
    // Sample variance of the payoff; standard error of the mean.
    return discount(mean, std::max(m.v1 / n - mean * mean, 0.0), n);
  }

  double spot, strike;
  double v_rt_t;  // sigma * sqrt(T)
  double mu_t;    // (r - q - sigma^2/2) * T
  double df;      // exp(-r T)
  double sign;    // +1 call, -1 put
};

// Payoff moments over W SIMD lanes: two accumulator pairs over 2W normals
// break the add latency chain. Chunks arrive in path order and every one
// but the last must be a multiple of 2W paths; the last one's scalar tail
// adds in after the vectors fold.
template <int W>
class SimdSum {
 public:
  explicit SimdSum(const PathModel& m) : m_(m) {}

  // Kept out of line: inlined into the option loop, GCC 12 reloads the
  // exp constants every iteration (~10% slower at W = 8).
  [[gnu::noinline]] void add(const double* z, std::size_t n) {
    assert(ntail_ == 0);
    const V spot(m_.spot), strike(m_.strike), vrt(m_.v_rt_t), mu(m_.mu_t), sign(m_.sign);
    auto payoff = [&](V zv) {
      return max(V(0.0), sign * (spot * vecmath::exp(fmadd(vrt, zv, mu)) - strike));
    };
    Acc a = acc_;  // a local copy stays in registers
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) {
      const V ra = payoff(V::loadu(z + i));
      const V rb = payoff(V::loadu(z + i + W));
      a.v0a += ra;
      a.v1a = fmadd(ra, ra, a.v1a);
      a.v0b += rb;
      a.v1b = fmadd(rb, rb, a.v1b);
    }
    acc_ = a;
    for (; i < n; ++i) tail_[ntail_++] = z[i];
  }

  McMoments moments() const {
    McMoments m{hsum(acc_.v0a + acc_.v0b), hsum(acc_.v1a + acc_.v1b)};
    m_.accumulate(tail_, ntail_, m);
    return m;
  }

 private:
  using V = simd::Vec<double, W>;
  struct Acc {
    V v0a{0.0}, v1a{0.0}, v0b{0.0}, v1b{0.0};
  };
  const PathModel& m_;
  Acc acc_;
  double tail_[2 * W]{};
  std::size_t ntail_ = 0;
};

// Whole RNG chunks feed SimdSum without a tail at every width.
static_assert(kRngChunk % (2 * simd::kMaxVectorWidth) == 0);

// The computed-RNG normal source: the first n draws of
// NormalStream(seed, stream), handed to f kRngChunk at a time through buf.
template <class F>
void each_chunk(std::uint64_t seed, std::uint64_t stream, std::size_t n, double* buf, F&& f) {
  rng::NormalStream s(seed, stream);
  for (std::size_t done = 0; done < n; done += kRngChunk) {
    const std::size_t chunk = std::min(kRngChunk, n - done);
    s.fill({buf, chunk});
    f(buf, chunk);
  }
}

}  // namespace

// --- Reference (Lis. 5, scalar) ---------------------------------------------

void price_reference_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                            std::size_t npath, std::span<McResult> out) {
  assert(z.size() >= npath && out.size() >= opts.size());
  begin_batch(opts.size(), npath);
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const PathModel m(opts[o]);
    McMoments s;
    m.accumulate(z.data(), npath, s);
    out[o] = m.finalize(s, npath);
  }
}

// --- Basic: pragmas ----------------------------------------------------------

void price_basic_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                        std::size_t npath, std::span<McResult> out) {
  assert(z.size() >= npath && out.size() >= opts.size());
  begin_batch(opts.size(), npath);
  for (std::size_t o = 0; o < opts.size(); ++o) {
    FINBENCH_SPAN("mc.option");
    const PathModel m(opts[o]);
    double v0 = 0.0, v1 = 0.0;
    // Autovectorization + unroll: the compiler maps exp to its vector math
    // library (libmvec here, SVML in the paper) and splits the reductions.
#pragma omp simd reduction(+ : v0, v1)
    for (std::size_t i = 0; i < npath; ++i) {
      const double res = m.payoff(m.terminal(z[i]));
      v0 += res;
      v1 += res * res;
    }
    out[o] = m.finalize({v0, v1}, npath);
  }
}

// --- Optimized: explicit SIMD over paths --------------------------------------

void price_optimized_stream(std::span<const core::OptionSpec> opts, std::span<const double> z,
                            std::size_t npath, std::span<McResult> out, Width w) {
  assert(z.size() >= npath && out.size() >= opts.size());
  begin_batch(opts.size(), npath);
  simd::with_lanes<double>(w, [&](auto L) {
    for (std::size_t o = 0; o < opts.size(); ++o) {
      FINBENCH_SPAN("mc.option");
      const PathModel m(opts[o]);
      SimdSum<L> s(m);
      s.add(z.data(), npath);
      out[o] = m.finalize(s.moments(), npath);
    }
  });
}

McMoments integrate_stream_partial(const core::OptionSpec& opt, std::span<const double> z,
                                   Width w) {
  begin_batch(1, z.size());
  const PathModel m(opt);
  return simd::with_lanes<double>(w, [&](auto L) {
    SimdSum<L> s(m);
    s.add(z.data(), z.size());
    return s.moments();
  });
}

McResult finalize_moments(const core::OptionSpec& opt, const McMoments& m, std::size_t npath) {
  begin_batch(0, npath);  // the partials counted their paths
  return PathModel(opt).finalize(m, npath);
}

void price_reference_computed(std::span<const core::OptionSpec> opts, std::size_t npath,
                              std::uint64_t seed, std::span<McResult> out,
                              std::uint64_t stream_base, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  begin_batch(opts.size(), npath);
  core::ScratchBuf zb(scratch, kRngChunk);
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const PathModel m(opts[o]);
    McMoments s;
    each_chunk(seed, stream_base + o, npath, zb.data(),
               [&](const double* z, std::size_t n) { m.accumulate(z, n, s); });
    out[o] = m.finalize(s, npath);
  }
}

// Option o's normals are NormalStream(seed, stream_base + o)'s first npath
// draws, summed exactly as price_optimized_stream sums them.
void price_optimized_computed(std::span<const core::OptionSpec> opts, std::size_t npath,
                              std::uint64_t seed, std::span<McResult> out, Width w,
                              std::uint64_t stream_base, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  begin_batch(opts.size(), npath);
  core::ScratchBuf zb(scratch, kRngChunk);
  simd::with_lanes<double>(w, [&](auto L) {
    for (std::size_t o = 0; o < opts.size(); ++o) {
      FINBENCH_SPAN("mc.option");
      const PathModel m(opts[o]);
      SimdSum<L> s(m);
      each_chunk(seed, stream_base + o, npath, zb.data(),
                 [&](const double* z, std::size_t n) { s.add(z, n); });
      out[o] = m.finalize(s.moments(), npath);
    }
  });
}

// --- Variance reduction ---------------------------------------------------------

void price_variance_reduced(std::span<const core::OptionSpec> opts, std::size_t npath,
                            std::uint64_t seed, std::span<McResult> out, bool antithetic,
                            bool control_variate, std::uint64_t stream_base,
                            core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  begin_batch(opts.size(), npath);
  core::ScratchBuf zb(scratch, kRngChunk);
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const core::OptionSpec& opt = opts[o];
    const PathModel m(opt);

    // One observation per draw: the (pair-averaged, when antithetic)
    // payoff and control. Pair averaging bakes the negative within-pair
    // covariance into the sample variance, so the reported SE reflects
    // the true variance reduction.
    double sp = 0, spp = 0, sc = 0, scc = 0, spc = 0;
    const std::size_t draws = antithetic ? (npath + 1) / 2 : npath;
    each_chunk(seed, stream_base + o, draws, zb.data(), [&](const double* z, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const double st_plus = m.terminal(z[i]);
        double pay = m.payoff(st_plus);
        double ctrl = st_plus;
        if (antithetic) {
          const double st_minus = m.terminal(-z[i]);
          pay = 0.5 * (pay + m.payoff(st_minus));
          ctrl = 0.5 * (ctrl + st_minus);
        }
        sp += pay;
        spp += pay * pay;
        sc += ctrl;
        scc += ctrl * ctrl;
        spc += pay * ctrl;
      }
    });
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
    out[o] = m.discount(est, var_p, n);
  }
}

// --- Pathwise greeks -------------------------------------------------------------

void greeks_pathwise(std::span<const core::OptionSpec> opts, std::size_t npath,
                     std::uint64_t seed, std::span<McGreeks> out) {
  assert(out.size() >= opts.size());
  begin_batch(opts.size(), npath);
  core::ScratchBuf zb(nullptr, kRngChunk);
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const core::OptionSpec& opt = opts[o];
    const PathModel m(opt);
    const double sig_rt = m.v_rt_t;
    const double drift_vega = (opt.rate - opt.dividend + 0.5 * opt.vol * opt.vol) *
                              opt.years;  // d S_T / d sigma uses this

    double sp = 0, sd = 0, sdd = 0, sv = 0, svv = 0, sg = 0;
    each_chunk(seed, o, npath, zb.data(), [&](const double* zs, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const double z = zs[i];
        const double st = m.terminal(z);
        const double pay = m.payoff(st);
        sp += pay;
        if (pay > 0.0) {  // in the money
          // Pathwise delta: d payoff / d S0 = sign * S_T / S0 on ITM paths.
          const double d = m.sign * st / opt.spot;
          sd += d;
          sdd += d * d;
          // Pathwise vega: d S_T / d sigma = S_T (ln(S_T/S0) - drift)/sigma.
          const double dst_dsig = st * (std::log(st / opt.spot) - drift_vega) / opt.vol;
          const double v = m.sign * dst_dsig;
          sv += v;
          svv += v * v;
        }
        // Likelihood-ratio gamma (payoff-kink-safe, unbiased).
        const double w = ((z * z - 1.0) / (opt.spot * opt.spot * sig_rt * sig_rt)) -
                         z / (opt.spot * opt.spot * sig_rt);
        sg += pay * w;
      }
    });
    const double n = static_cast<double>(npath);
    McGreeks g;
    g.price = m.df * sp / n;
    g.delta = m.df * sd / n;
    g.vega = m.df * sv / n;
    g.gamma = m.df * sg / n;
    const double md = sd / n, mv = sv / n;
    g.delta_se = m.df * std::sqrt(std::max(sdd / n - md * md, 0.0) / n);
    g.vega_se = m.df * std::sqrt(std::max(svv / n - mv * mv, 0.0) / n);
    out[o] = g;
  }
}

}  // namespace finbench::kernels::mc
