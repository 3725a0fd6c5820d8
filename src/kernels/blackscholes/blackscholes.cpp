#include "finbench/kernels/blackscholes.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/analytic.hpp"
#include "finbench/core/scratch_pool.hpp"
#include "finbench/vecmath/vecmath.hpp"
#include "bs_model.hpp"

namespace finbench::kernels::bs {

namespace {

inline double cnd_scalar(double x) { return 0.5 * std::erfc(-x * 0.70710678118654752440); }

// Options [begin, n) of a SOA batch, fewer than one vector, through the
// model `price` on a copy padded with the last option. No scalar
// tail: an option's price does not depend on where it sits in the batch,
// so a coalesced member prices as it does alone.
template <class V, class T, class Price>
void price_padded_tail(const T* s, const T* k, const T* t, T* call, T* put, std::ptrdiff_t begin,
                       std::ptrdiff_t n, const Price& price) {
  constexpr int W = V::width;
  alignas(64) T in[3][W] = {};
  alignas(64) T out[2][W] = {};
  for (std::ptrdiff_t ln = 0; ln < W; ++ln) {
    const std::ptrdiff_t j = std::min(begin + ln, n - 1);
    in[0][ln] = s[j];
    in[1][ln] = k[j];
    in[2][ln] = t[j];
  }
  const auto [c, p] = price(V::load(in[0]), V::load(in[1]), V::load(in[2]));
  c.storeu(out[0]);
  p.storeu(out[1]);
  for (std::ptrdiff_t i = begin; i < n; ++i) {
    call[i] = out[0][i - begin];
    put[i] = out[1][i - begin];
  }
}

}  // namespace

// --- Reference: Lis. 1, scalar, AOS --------------------------------------

// A dividend yield q prices through the forward-discounted spot S·e^(-qT)
// and the drift r - q; at q = 0 both are exactly S and r, so the paper's
// dividend-free arithmetic is unchanged bit for bit.
void price_reference(core::BsAosView batch) {
  count_priced(batch.size());
  const double r = batch.rate;
  const double q = batch.dividend;
  const double drift = r - q;
  const double sig = batch.vol;
  const double sig22 = sig * sig / 2;
  core::BsOptionAos* opts = batch.options.data();
  const std::size_t nopt = batch.size();
  for (std::size_t i = 0; i < nopt; ++i) {
    const double qlog = std::log(opts[i].spot / opts[i].strike);
    const double denom = 1.0 / (sig * std::sqrt(opts[i].years));
    const double d1 = (qlog + (drift + sig22) * opts[i].years) * denom;
    const double d2 = (qlog + (drift - sig22) * opts[i].years) * denom;
    const double xexp = opts[i].strike * std::exp(-r * opts[i].years);
    const double sq = q == 0.0 ? opts[i].spot : opts[i].spot * std::exp(-q * opts[i].years);
    opts[i].call = sq * cnd_scalar(d1) - xexp * cnd_scalar(d2);
    opts[i].put = xexp * cnd_scalar(-d2) - sq * cnd_scalar(-d1);
  }
}

// --- Basic: compiler pragmas on the AOS loop ------------------------------

void price_basic(core::BsAosView batch) {
  count_priced(batch.size());
  if (batch.dividend != 0.0) {
    throw std::invalid_argument(
        "this variant reproduces the paper's dividend-free kernel; "
        "use price_intermediate for dividend yields");
  }
  const double r = batch.rate;
  const double sig = batch.vol;
  const double sig22 = sig * sig / 2;
  core::BsOptionAos* opts = batch.options.data();
  const std::ptrdiff_t nopt = static_cast<std::ptrdiff_t>(batch.size());
  // The pragma is the whole optimization: the compiler vectorizes, but the
  // strided AOS accesses become gathers/scatters (the paper's Fig. 4
  // "Basic" bar, and the 10x instruction blow-up on 8-wide SIMD).
#pragma omp simd
  for (std::ptrdiff_t i = 0; i < nopt; ++i) {
    const double qlog = std::log(opts[i].spot / opts[i].strike);
    const double denom = 1.0 / (sig * std::sqrt(opts[i].years));
    const double d1 = (qlog + (r + sig22) * opts[i].years) * denom;
    const double d2 = (qlog + (r - sig22) * opts[i].years) * denom;
    const double xexp = opts[i].strike * std::exp(-r * opts[i].years);
    opts[i].call = opts[i].spot * cnd_scalar(d1) - xexp * cnd_scalar(d2);
    opts[i].put = xexp * cnd_scalar(-d2) - opts[i].spot * cnd_scalar(-d1);
  }
}

// --- Intermediate: SOA + explicit SIMD across options ----------------------

namespace {

// One option per SIMD lane through the shared model, streaming stores;
// the same driver prices the DP and the SP arrays.
template <class V, bool HasDividend, class View>
void price_soa(const View& batch) {
  using T = typename V::value_type;
  constexpr int W = V::width;
  const BsModel<V, HasDividend> model(T(batch.rate), T(batch.vol), T(batch.dividend));

  const std::ptrdiff_t nopt = static_cast<std::ptrdiff_t>(batch.size());
  const T* s = batch.spot.data();
  const T* k = batch.strike.data();
  const T* t = batch.years.data();
  T* call = batch.call.data();
  T* put = batch.put.data();

  const std::ptrdiff_t vec_end = nopt - nopt % W;
  for (std::ptrdiff_t i = 0; i < vec_end; i += W) {
    const auto [c, p] = model(V::load(s + i), V::load(k + i), V::load(t + i));
    c.stream(call + i);
    p.stream(put + i);
  }
  if (vec_end < nopt) price_padded_tail<V>(s, k, t, call, put, vec_end, nopt, model);
}

}  // namespace

void price_intermediate(core::BsSoaView batch, Width w) {
  count_priced(batch.size());
  with_model<double>(w, batch.dividend, [&]<class V, bool Q>() { price_soa<V, Q>(batch); });
}

void price_intermediate_sp(core::BsSoaFView batch, Width w) {
  count_priced(batch.size());
  with_model<float>(w, batch.dividend, [&]<class V, bool Q>() { price_soa<V, Q>(batch); });
}

// --- Advanced: VML-style whole-array passes --------------------------------

// Dividends as in price_reference: a fifth array pass turns qlog's buffer
// into e^(-qT) once the logs are consumed, and S·e^(-qT) replaces S.
void price_advanced_vml(core::BsSoaView batch, Width w, core::ScratchPool* scratch) {
  count_priced(batch.size());
  const std::size_t n = batch.size();
  const double r = batch.rate;
  const double q = batch.dividend;
  const double drift = r - q;
  const double sig = batch.vol;
  const double sig22 = sig * sig / 2;

  // Chunked so the temporaries stay in L2; each chunk makes VML-style
  // whole-array calls (log, exp, cnd) through one scratch buffer, leased
  // from the caller's pool when it has room (steady state: zero
  // allocations), else allocated locally.
  constexpr std::size_t kChunk = kVmlChunk;

  core::ScratchBuf buf(scratch, 4 * kChunk);
  double* const d1 = buf.data();
  double* const d2 = d1 + kChunk;
  double* const xexp = d1 + 2 * kChunk;
  double* const qlog = d1 + 3 * kChunk;
  for (std::size_t start = 0; start < n; start += kChunk) {
    const std::size_t c = std::min(kChunk, n - start);
    const double* s = batch.spot.data() + start;
    const double* k = batch.strike.data() + start;
    const double* t = batch.years.data() + start;
    double* call = batch.call.data() + start;
    double* put = batch.put.data() + start;

    for (std::size_t i = 0; i < c; ++i) qlog[i] = s[i] / k[i];
    vecmath::log({qlog, c}, {qlog, c}, w);
    for (std::size_t i = 0; i < c; ++i) {
      const double denom = 1.0 / (sig * std::sqrt(t[i]));
      d1[i] = (qlog[i] + (drift + sig22) * t[i]) * denom;
      d2[i] = (qlog[i] + (drift - sig22) * t[i]) * denom;
      xexp[i] = -r * t[i];
    }
    vecmath::exp({xexp, c}, {xexp, c}, w);
    vecmath::cnd({d1, c}, {d1, c}, w);
    vecmath::cnd({d2, c}, {d2, c}, w);
    double* const disc_q = qlog;
    if (q != 0.0) {
      for (std::size_t i = 0; i < c; ++i) disc_q[i] = -q * t[i];
      vecmath::exp({disc_q, c}, {disc_q, c}, w);
    }
    for (std::size_t i = 0; i < c; ++i) {
      const double disc_k = k[i] * xexp[i];
      const double sq = q == 0.0 ? s[i] : s[i] * disc_q[i];
      call[i] = sq * d1[i] - disc_k * d2[i];
      put[i] = call[i] - sq + disc_k;
    }
  }
}

// --- Batch greeks --------------------------------------------------------------

namespace {

template <int W>
void greeks_width(const core::BsSoaCView& batch, GreeksBatchSoa& out) {
  using V = simd::Vec<double, W>;
  const V r(batch.rate);
  const V q(batch.dividend);
  const V drift(batch.rate - batch.dividend);
  const V sig(batch.vol);
  const V sig22(batch.vol * batch.vol / 2);
  const V one(1.0), half(0.5);
  const V inv_sqrt2(0.70710678118654752440);
  const V inv_sqrt2pi(0.39894228040143267794);

  const std::ptrdiff_t nopt = static_cast<std::ptrdiff_t>(batch.size());
  const double* s = batch.spot.data();
  const double* k = batch.strike.data();
  const double* t = batch.years.data();

  const std::ptrdiff_t vec_end = nopt - nopt % W;
  for (std::ptrdiff_t i = 0; i < vec_end; i += W) {
    const V S = V::load(s + i);
    const V K = V::load(k + i);
    const V T = V::load(t + i);
    const V rt_t = sqrt(T);
    const V sig_rt = sig * rt_t;
    const V d1 = (vecmath::log(S / K) + (drift + sig22) * T) / sig_rt;
    const V d2 = d1 - sig_rt;
    const V df = vecmath::exp(-r * T);
    const V qf = vecmath::exp(-q * T);
    const V kdf = K * df;
    const V pdf_d1 = inv_sqrt2pi * vecmath::exp(-half * d1 * d1);
    const V nd1 = fmadd(vecmath::erf(d1 * inv_sqrt2), half, half);
    const V nd2 = fmadd(vecmath::erf(d2 * inv_sqrt2), half, half);

    (qf * nd1).storeu(out.delta_call.data() + i);
    (qf * (nd1 - one)).storeu(out.delta_put.data() + i);
    (qf * pdf_d1 / (S * sig_rt)).storeu(out.gamma.data() + i);
    (S * qf * pdf_d1 * rt_t).storeu(out.vega.data() + i);
    const V theta_common = -S * qf * pdf_d1 * sig / (V(2.0) * rt_t);
    const V r_kdf = r * kdf;
    const V q_sqf = q * S * qf;
    (theta_common - r_kdf * nd2 + q_sqf * nd1).storeu(out.theta_call.data() + i);
    (theta_common + r_kdf * (one - nd2) - q_sqf * (one - nd1))
        .storeu(out.theta_put.data() + i);
    const V ktdf = kdf * T;
    (ktdf * nd2).storeu(out.rho_call.data() + i);
    (ktdf * (nd2 - one)).storeu(out.rho_put.data() + i);
  }
  // Tail: scalar via the analytic module.
  for (std::ptrdiff_t i = vec_end; i < nopt; ++i) {
    core::OptionSpec o{s[i], k[i], t[i], batch.rate, batch.vol, core::OptionType::kCall,
                       core::ExerciseStyle::kEuropean, batch.dividend};
    const core::BsGreeks gc = core::black_scholes_greeks(o);
    o.type = core::OptionType::kPut;
    const core::BsGreeks gp = core::black_scholes_greeks(o);
    out.delta_call[i] = gc.delta;
    out.delta_put[i] = gp.delta;
    out.gamma[i] = gc.gamma;
    out.vega[i] = gc.vega;
    out.theta_call[i] = gc.theta;
    out.theta_put[i] = gp.theta;
    out.rho_call[i] = gc.rho;
    out.rho_put[i] = gp.rho;
  }
}

}  // namespace

void greeks_intermediate(core::BsSoaCView batch, GreeksBatchSoa& out, Width w) {
  out.resize(batch.size());
  simd::with_lanes<double>(w, [&](auto L) { greeks_width<L>(batch, out); });
}

// --- Batch implied volatility ---------------------------------------------------

namespace {

template <int W>
void implied_vol_width(const core::BsSoaCView& batch, std::span<const double> prices,
                       std::span<double> out) {
  using V = simd::Vec<double, W>;
  using M = typename V::mask_type;
  const V r(batch.rate);
  const V q(batch.dividend);
  const V drift(batch.rate - batch.dividend);
  const V half(0.5), one(1.0);
  const V inv_sqrt2(0.70710678118654752440);
  const V inv_sqrt2pi(0.39894228040143267794);
  constexpr double kTol = 1e-12;

  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(batch.size());
  const std::ptrdiff_t vec_end = n - n % W;

  for (std::ptrdiff_t i = 0; i < vec_end; i += W) {
    const V S = V::loadu(batch.spot.data() + i);
    const V K = V::loadu(batch.strike.data() + i);
    const V T = V::loadu(batch.years.data() + i);
    const V target = V::loadu(prices.data() + i);
    const V rt_t = sqrt(T);
    const V kdf = K * vecmath::exp(-r * T);
    const V sq = S * vecmath::exp(-q * T);
    const V log_sk = vecmath::log(S / K);

    // Arbitrage-free band for a European call (on the forward).
    const M valid = (target >= max(sq - kdf, V(0.0))) & (target <= sq);

    V lo(1e-6), hi(4.0), vol(0.5);
    M done = !valid;
    for (int it = 0; it < 100 && !done.all(); ++it) {
      const V sig_rt = vol * rt_t;
      const V d1 = log_sk / sig_rt + fmadd(half * vol, rt_t, drift * T / sig_rt);
      const V d2 = d1 - sig_rt;
      const V nd1 = fmadd(vecmath::erf(d1 * inv_sqrt2), half, half);
      const V nd2 = fmadd(vecmath::erf(d2 * inv_sqrt2), half, half);
      const V price = fmsub(sq, nd1, kdf * nd2);
      const V vega = sq * inv_sqrt2pi * vecmath::exp(-half * d1 * d1) * rt_t;
      const V diff = price - target;

      const M converged = abs(diff) <= V(kTol) * max(one, target);
      done = done | converged;

      const M high = diff > V(0.0);
      hi = select(high & (!done), vol, hi);
      lo = select((!high) & (!done), vol, lo);
      V next = vol - diff / max(vega, V(1e-12));
      const M out_of_band = !((next > lo) & (next < hi));
      next = select(out_of_band, half * (lo + hi), next);
      vol = select(done, vol, next);
    }
    select(valid, vol, V(-1.0)).storeu(out.data() + i);
  }
  // Tail via the scalar solver.
  for (std::ptrdiff_t i = vec_end; i < n; ++i) {
    core::OptionSpec o{batch.spot[i], batch.strike[i], batch.years[i], batch.rate, 0.2,
                       core::OptionType::kCall, core::ExerciseStyle::kEuropean,
                       batch.dividend};
    out[i] = core::implied_volatility(o, prices[i]);
  }
}

}  // namespace

void implied_vol_intermediate(core::BsSoaCView batch,
                              std::span<const double> call_prices, std::span<double> vols_out,
                              Width w) {
  assert(call_prices.size() >= batch.size() && vols_out.size() >= batch.size());
  simd::with_lanes<double>(
      w, [&](auto L) { implied_vol_width<L>(batch, call_prices, vols_out); });
}

}  // namespace finbench::kernels::bs
