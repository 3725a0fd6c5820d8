#include "finbench/kernels/cranknicolson.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/scratch_pool.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/trace.hpp"
#include "finbench/simd/vec.hpp"
#include "finbench/vecmath/array_math.hpp"
#include "finbench/vecmath/vecmath.hpp"

namespace finbench::kernels::cn {

namespace {

constexpr long kMaxItersPerStep = 100000;

// Heat-equation transform of the Black–Scholes problem (see header). With
// a continuous dividend yield the drift coefficient k1 = 2(r-q)/sigma^2
// and the discount coefficient k2 = 2r/sigma^2 separate; for q = 0 both
// equal k and the familiar (k+1)^2/4 exponent appears.
struct Transform {
  double q;           // k1 = 2 (r - div) / sigma^2 (drives the payoff shape)
  double a, b;        // (k1-1)/2, (k1+1)/2
  double scale_coef;  // (k1-1)^2/4 + k2: the tau-exponent of the obstacle
  double tau_max;     // sigma^2 T / 2
  double x0;          // ln(S/K)
  double xmin, dx, dtau, alpha;
  int m, n, mid;
  double strike;
  bool call;
  bool american;  // early exercise: the solution is projected onto the obstacle

  double x_at(int j) const { return xmin + dx * j; }

  // Obstacle / payoff in transformed coordinates.
  double payoff(double x, double tau) const {
    const double scale = std::exp(scale_coef * tau);
    const double e1 = std::exp(a * x);
    const double e2 = std::exp(b * x);
    return scale * std::max(call ? e2 - e1 : e1 - e2, 0.0);
  }

  double to_price(double u_center) const {
    return strike * u_center * std::exp(-a * x0 - scale_coef * tau_max);
  }
};

Transform make_transform(const core::OptionSpec& o, const GridSpec& g) {
  if (o.vol <= 0 || o.years <= 0) {
    throw std::invalid_argument("crank-nicolson: vol and years must be positive");
  }
  Transform t;
  t.q = 2.0 * (o.rate - o.dividend) / (o.vol * o.vol);
  const double k2 = 2.0 * o.rate / (o.vol * o.vol);
  // The log-transform's obstacle carries factors e^{(k±1)x/2}: when
  // |2r/sigma^2| is large (near-zero volatility vs the rate) those span
  // hundreds of orders of magnitude across the grid and double precision
  // cannot represent the solution. Reject and point at the alternatives.
  if (std::fabs(t.q) > 60.0 || std::fabs(k2) > 60.0) {
    throw std::invalid_argument(
        "crank-nicolson: |2 r / sigma^2| too large (near-zero volatility); "
        "the transformed obstacle overflows double precision — use the "
        "lattice pricers or the closed form in this regime");
  }
  t.a = 0.5 * (t.q - 1);
  t.b = 0.5 * (t.q + 1);
  t.scale_coef = 0.25 * (t.q - 1) * (t.q - 1) + k2;
  t.tau_max = 0.5 * o.vol * o.vol * o.years;
  t.x0 = std::log(o.spot / o.strike);
  t.m = g.num_prices;
  t.n = g.num_steps;
  t.mid = (t.m - 1) / 2;
  const double half =
      g.halfwidth > 0 ? g.halfwidth : 5.0 * o.vol * std::sqrt(o.years) + std::fabs(t.x0) + 0.5;
  t.dx = 2.0 * half / (t.m - 1);
  t.xmin = t.x0 - t.mid * t.dx;  // grid centered so x0 is a grid point
  t.dtau = t.tau_max / t.n;
  t.alpha = t.dtau / (t.dx * t.dx);
  t.strike = o.strike;
  t.call = o.type == core::OptionType::kCall;
  t.american = o.style == core::ExerciseStyle::kAmerican;
  return t;
}

// Convergence threshold: GridSpec::epsilon is relative to the squared
// payoff scale so options of different magnitude converge equally.
double epsilon_abs(const Transform& t, const GridSpec& g) {
  double scale = 0.0;
  for (int j = 0; j < t.m; ++j) scale = std::max(scale, std::fabs(t.payoff(t.x_at(j), 0.0)));
  return g.epsilon * std::max(1.0, scale * scale);
}

// Obstacle G for time level tau: G_j(tau) = e^{scale_coef·tau} · h_j, with
// the payoff shape h_j = max(±(e^{a x_j} - e^{b x_j}), 0) fixed for the
// whole solve. The paper's u_payoff loop recomputes both exponentials every
// step (~10% of solve time, Sec. IV-E1); they are loop-invariant, so the
// filler computes h once with the vectorized exp and each step is one
// scaling pass — bitwise the values the per-step passes produced.
//
// A European option has no early exercise: its interior obstacle is -inf,
// so every solver's projection max(G, .) is a no-op there, while the two
// boundary points keep the payoff as their Dirichlet values.
struct ObstacleFiller {
  arch::AlignedVector<double> shape;

  explicit ObstacleFiller(const Transform& t) : shape(t.m) {
    arch::AlignedVector<double> ax(t.m), bx(t.m), e1(t.m), e2(t.m);
    for (int j = 0; j < t.m; ++j) {
      ax[j] = t.a * t.x_at(j);
      bx[j] = t.b * t.x_at(j);
    }
    vecmath::exp(ax, e1);
    vecmath::exp(bx, e2);
    const double sign = t.call ? -1.0 : 1.0;
    for (int j = 0; j < t.m; ++j) shape[j] = std::max(sign * (e1[j] - e2[j]), 0.0);
    if (!t.american) {
      std::fill(shape.begin() + 1, shape.end() - 1, -std::numeric_limits<double>::infinity());
    }
  }

  void fill(const Transform& t, double tau, double* g) const {
    const double scale = std::exp(t.scale_coef * tau);
#pragma omp simd
    for (int j = 0; j < t.m; ++j) g[j] = scale * shape[j];
  }
};

// Explicit half-step: B_j = (1-alpha) U_j + alpha/2 (U_{j+1} + U_{j-1}).
void explicit_half(const Transform& t, const double* u, double* b) {
  const double a1 = 1.0 - t.alpha;
  const double a2 = 0.5 * t.alpha;
#pragma omp simd
  for (int j = 1; j < t.m - 1; ++j) b[j] = a1 * u[j] + a2 * (u[j + 1] + u[j - 1]);
}

// --- Scalar PSOR (Lis. 7) ----------------------------------------------------

// Runs `block` iterations; returns the squared-update error of the LAST
// iteration (callers decide convergence). Updates u in place.
double psor_iterations(double* u, const double* b, const double* g, int m, double alpha,
                       double omega, int block) {
  const double coeff = 1.0 / (1.0 + alpha);
  const double a2 = 0.5 * alpha;
  double err = 0.0;
  for (int it = 0; it < block; ++it) {
    err = 0.0;
    for (int j = 1; j < m - 1; ++j) {
      const double y = coeff * (b[j] + a2 * (u[j - 1] + u[j + 1]));
      const double un = std::max(g[j], u[j] + omega * (y - u[j]));
      const double d = un - u[j];
      err += d * d;
      u[j] = un;
    }
  }
  return err;
}

// One full solve given a PSOR driver `solve_step(u, b, g, omega) -> loops`.
template <class StepSolver>
SolveResult run_time_loop(const Transform& t, const GridSpec& grid, StepSolver&& solve_step) {
  arch::AlignedVector<double> u(t.m), b(t.m), g(t.m);
  for (int j = 0; j < t.m; ++j) u[j] = t.payoff(t.x_at(j), 0.0);
  ObstacleFiller filler(t);

  SolveResult result;
  double omega = grid.omega0;
  long prev_loops = std::numeric_limits<long>::max();
  for (int n = 1; n <= t.n; ++n) {
    const double tau = n * t.dtau;
    {
      FINBENCH_SPAN("cn.explicit_half");
      explicit_half(t, u.data(), b.data());
    }
    {
      FINBENCH_SPAN("cn.obstacle_boundary");
      filler.fill(t, tau, g.data());
      u[0] = g[0];
      u[t.m - 1] = g[t.m - 1];
    }
    FINBENCH_SPAN("cn.solve");
    const long loops = solve_step(u.data(), b.data(), g.data(), omega);
    result.total_iterations += loops;
    // Relaxation adaptation in the spirit of Lis. 6: when the iteration
    // count grows, push omega toward the over-relaxed regime.
    if (loops > prev_loops) omega = std::min(omega + grid.domega, 1.95);
    prev_loops = loops;
  }
  result.price = t.to_price(u[t.mid]);
  return result;
}

}  // namespace

SolveResult price_reference(const core::OptionSpec& opt, const GridSpec& grid) {
  const Transform t = make_transform(opt, grid);
  const double eps = epsilon_abs(t, grid);
  return run_time_loop(t, grid, [&](double* u, const double* b, const double* g, double omega) {
    long loops = 0;
    double err;
    do {
      err = psor_iterations(u, b, g, t.m, t.alpha, omega, 1);
      ++loops;
    } while (err > eps && loops < kMaxItersPerStep);
    return loops;
  });
}

SolveResult price_reference_blocked(const core::OptionSpec& opt, const GridSpec& grid,
                                    int block) {
  const Transform t = make_transform(opt, grid);
  const double eps = epsilon_abs(t, grid);
  return run_time_loop(t, grid, [&](double* u, const double* b, const double* g, double omega) {
    long loops = 0;
    double err;
    do {
      err = psor_iterations(u, b, g, t.m, t.alpha, omega, block);
      loops += block;
    } while (err > eps && loops < kMaxItersPerStep);
    return loops;
  });
}

// --- Pipelined GSOR sweeps (see header) --------------------------------------

void run_wave_sweep(const WaveSweep& s) {
  const double coeff = 1.0 / (1.0 + s.alpha);
  const double a2 = 0.5 * s.alpha;
  double err = 0.0;
  for (int j = 1; j < s.m - 1; ++j) {
    if (s.prev != nullptr) {
      // Sweep k-1 must be past point j+1: u[j+1] then holds its value and
      // it will never read u[j] again, so this sweep may overwrite it.
      // The predecessor was dispatched first (FIFO contract), so the spin
      // always makes progress; yield keeps an oversubscribed host live.
      int spins = 0;
      while (s.prev->load(std::memory_order_acquire) < j + 1) {
        if (++spins >= 1024) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
    const double y = coeff * (s.b[j] + a2 * (s.u[j - 1] + s.u[j + 1]));
    const double un = std::max(s.g[j], s.u[j] + s.omega * (y - s.u[j]));
    const double d = un - s.u[j];
    err += d * d;
    s.u[j] = un;
    s.progress->store(j, std::memory_order_release);
  }
  // Past-the-end marker: the successor's wait for m-2+1 passes.
  s.progress->store(s.m, std::memory_order_release);
  *s.err_out = err;
}

void serial_wave_runner(void*, WaveSweep* sweeps, int nsweeps) {
  for (int i = 0; i < nsweeps; ++i) run_wave_sweep(sweeps[i]);
}

SolveResult price_wavefront_tasked(const core::OptionSpec& opt, const GridSpec& grid,
                                   int block, WaveRunner runner, void* ctx) {
  if (block < 1 || block > kMaxWaveBlock) {
    throw std::invalid_argument("crank-nicolson tasked: block outside [1, kMaxWaveBlock]");
  }
  const Transform t = make_transform(opt, grid);
  const double eps = epsilon_abs(t, grid);
  return run_time_loop(t, grid, [&](double* u, const double* b, const double* g, double omega) {
    long loops = 0;
    double err;
    std::atomic<long> progress[kMaxWaveBlock];
    double errs[kMaxWaveBlock];
    WaveSweep sweeps[kMaxWaveBlock];
    do {
      for (int k = 0; k < block; ++k) {
        progress[k].store(0, std::memory_order_relaxed);
        errs[k] = 0.0;
        sweeps[k] = WaveSweep{u,        b,
                              g,        t.m,
                              t.alpha,  omega,
                              &errs[k], &progress[k],
                              k > 0 ? &progress[k - 1] : nullptr};
      }
      runner(ctx, sweeps, block);
      err = errs[block - 1];
      loops += block;
    } while (err > eps && loops < kMaxItersPerStep);
    return loops;
  });
}

// --- Wavefront SIMD ----------------------------------------------------------

namespace {

// Scalar update of one point for iteration-diagonal phases; accumulates the
// squared update into err[c] for convergence iteration c of the block.
inline void update_point(double* u, const double* b, const double* g, int j, double coeff,
                         double a2, double omega, double& err_c) {
  const double y = coeff * (b[j] + a2 * (u[j - 1] + u[j + 1]));
  const double un = std::max(g[j], u[j] + omega * (y - u[j]));
  const double d = un - u[j];
  err_c += d * d;
  u[j] = un;
}

// One block of W PSOR iterations along the t = 2k + j wavefront, with
// stride-2 gathers (the "Manual SIMD" variant). Lane l carries iteration
// c = W-1-l of the block, so lane positions j = base + 2l ascend.
// Returns the squared-update error of the newest iteration (c = W-1).
template <int W>
double wavefront_block_gather(double* u, const double* b, const double* g, int m, double alpha,
                              double omega) {
  using V = simd::Vec<double, W>;
  const double coeff_s = 1.0 / (1.0 + alpha);
  const double a2_s = 0.5 * alpha;
  const V coeff(coeff_s), a2(a2_s), om(omega);

  double err[W] = {};  // err[c] for iteration c of this block
  const int last_j = m - 2;
  const int total_steps = last_j + 2 * (W - 1);  // s = 1 .. total_steps

  alignas(64) std::int32_t idx[W];
  for (int l = 0; l < W; ++l) idx[l] = 2 * l;

  // A step s updates, for iteration c, the point j = s - 2c (active when
  // 1 <= j <= m-2). Steady state = all W iterations active.
  const int steady_lo = 1 + 2 * (W - 1);
  const int steady_hi = last_j;

  V verr(0.0);
  for (int s = 1; s <= total_steps; ++s) {
    if (s >= steady_lo && s <= steady_hi) {
      const int base = s - 2 * (W - 1);  // lane l: j = base + 2l
      const V um = V::gather(u + base - 1, idx);
      const V up = V::gather(u + base + 1, idx);
      const V uc = V::gather(u + base, idx);
      const V bv = V::gather(b + base, idx);
      const V gv = V::gather(g + base, idx);
      const V y = coeff * fmadd(a2, um + up, bv);
      const V un = max(gv, fmadd(om, y - uc, uc));
      const V d = un - uc;
      verr = fmadd(d, d, verr);
      alignas(64) double tmp[W];
      un.store(tmp);
      for (int l = 0; l < W; ++l) u[base + 2 * l] = tmp[l];
    } else {
      for (int c = 0; c < W; ++c) {
        const int j = s - 2 * c;
        if (j >= 1 && j <= last_j) update_point(u, b, g, j, coeff_s, a2_s, omega, err[c]);
      }
    }
  }
  // Lane l carried iteration c = W-1-l.
  for (int l = 0; l < W; ++l) err[W - 1 - l] += verr.lane(l);
  return err[W - 1];
}

// Parity-split state for the advanced variant: even/odd j live in separate
// contiguous arrays, so wavefront lane accesses are unit-stride.
struct SplitArrays {
  arch::AlignedVector<double> ue, uo, be, bo, ge, go;
  int m = 0;

  void resize(int m_) {
    m = m_;
    const int ne = (m + 1) / 2, no = m / 2;
    ue.resize(ne);
    uo.resize(no);
    be.resize(ne);
    bo.resize(no);
    ge.resize(ne);
    go.resize(no);
  }
  double& u_at(int j) { return (j & 1) ? uo[j >> 1] : ue[j >> 1]; }
  double& b_at(int j) { return (j & 1) ? bo[j >> 1] : be[j >> 1]; }
  double& g_at(int j) { return (j & 1) ? go[j >> 1] : ge[j >> 1]; }
  double u_val(int j) const { return (j & 1) ? uo[j >> 1] : ue[j >> 1]; }
};

// The same wavefront block on parity-split arrays: all vector accesses are
// contiguous (loadu/storeu), no gathers — the "data structure transform".
template <int W>
double wavefront_block_split(SplitArrays& sa, double alpha, double omega) {
  using V = simd::Vec<double, W>;
  const int m = sa.m;
  const double coeff_s = 1.0 / (1.0 + alpha);
  const double a2_s = 0.5 * alpha;
  const V coeff(coeff_s), a2(a2_s), om(omega);

  double err[W] = {};
  const int last_j = m - 2;
  const int total_steps = last_j + 2 * (W - 1);
  const int steady_lo = 1 + 2 * (W - 1);
  const int steady_hi = last_j;

  V verr(0.0);
  for (int s = 1; s <= total_steps; ++s) {
    if (s >= steady_lo && s <= steady_hi) {
      const int base = s - 2 * (W - 1);  // lane l: j = base + 2l, parity(base)
      double* uc_arr;
      const double* b_arr;
      const double* g_arr;
      const double* um_arr;  // j-1 (opposite parity)
      const double* up_arr;  // j+1 (opposite parity)
      int half, mhalf, phalf;
      if (base & 1) {
        half = base >> 1;         // Uo index of j
        mhalf = (base - 1) >> 1;  // Ue index of j-1
        phalf = (base + 1) >> 1;  // Ue index of j+1
        uc_arr = sa.uo.data();
        b_arr = sa.bo.data();
        g_arr = sa.go.data();
        um_arr = sa.ue.data();
        up_arr = sa.ue.data();
      } else {
        half = base >> 1;
        mhalf = (base - 1) >> 1;
        phalf = (base + 1) >> 1;
        uc_arr = sa.ue.data();
        b_arr = sa.be.data();
        g_arr = sa.ge.data();
        um_arr = sa.uo.data();
        up_arr = sa.uo.data();
      }
      const V um = V::loadu(um_arr + mhalf);
      const V up = V::loadu(up_arr + phalf);
      const V uc = V::loadu(uc_arr + half);
      const V bv = V::loadu(b_arr + half);
      const V gv = V::loadu(g_arr + half);
      const V y = coeff * fmadd(a2, um + up, bv);
      const V un = max(gv, fmadd(om, y - uc, uc));
      const V d = un - uc;
      verr = fmadd(d, d, verr);
      un.storeu(uc_arr + half);
    } else {
      for (int c = 0; c < W; ++c) {
        const int j = s - 2 * c;
        if (j < 1 || j > last_j) continue;
        const double y =
            coeff_s * (sa.b_at(j) + a2_s * (sa.u_val(j - 1) + sa.u_val(j + 1)));
        const double un = std::max(sa.g_at(j), sa.u_at(j) + omega * (y - sa.u_at(j)));
        const double dd = un - sa.u_at(j);
        err[c] += dd * dd;
        sa.u_at(j) = un;
      }
    }
  }
  for (int l = 0; l < W; ++l) err[W - 1 - l] += verr.lane(l);
  return err[W - 1];
}

// Per-option state for one block of W wavefront iterations on split
// arrays; lets two independent solves interleave their steps in one loop
// (the ILP-pairing extension, price_wavefront_split_pair).
template <int W>
struct SplitBlockState {
  using V = simd::Vec<double, W>;

  SplitArrays* sa = nullptr;
  double coeff_s = 0, a2_s = 0, om_s = 0;
  V coeff, a2, om, verr;
  double err[W] = {};

  void begin(SplitArrays& arrays, double alpha, double omega) {
    sa = &arrays;
    coeff_s = 1.0 / (1.0 + alpha);
    a2_s = 0.5 * alpha;
    om_s = omega;
    coeff = V(coeff_s);
    a2 = V(a2_s);
    om = V(omega);
    verr = V(0.0);
    for (auto& e : err) e = 0.0;
  }

  // Steady-state vector step at wavefront position s.
  inline void vector_step(int s) {
    const int base = s - 2 * (W - 1);
    double* uc_arr;
    const double* b_arr;
    const double* g_arr;
    const double* um_arr;
    const double* up_arr;
    const int half = base >> 1;
    const int mhalf = (base - 1) >> 1;
    const int phalf = (base + 1) >> 1;
    if (base & 1) {
      uc_arr = sa->uo.data();
      b_arr = sa->bo.data();
      g_arr = sa->go.data();
      um_arr = sa->ue.data();
      up_arr = sa->ue.data();
    } else {
      uc_arr = sa->ue.data();
      b_arr = sa->be.data();
      g_arr = sa->ge.data();
      um_arr = sa->uo.data();
      up_arr = sa->uo.data();
    }
    const V um = V::loadu(um_arr + mhalf);
    const V up = V::loadu(up_arr + phalf);
    const V uc = V::loadu(uc_arr + half);
    const V bv = V::loadu(b_arr + half);
    const V gv = V::loadu(g_arr + half);
    const V y = coeff * fmadd(a2, um + up, bv);
    const V un = max(gv, fmadd(om, y - uc, uc));
    const V d = un - uc;
    verr = fmadd(d, d, verr);
    un.storeu(uc_arr + half);
  }

  // Prologue/epilogue scalar step.
  inline void scalar_step(int s, int last_j) {
    for (int c = 0; c < W; ++c) {
      const int j = s - 2 * c;
      if (j < 1 || j > last_j) continue;
      const double y = coeff_s * (sa->b_at(j) + a2_s * (sa->u_val(j - 1) + sa->u_val(j + 1)));
      const double un = std::max(sa->g_at(j), sa->u_at(j) + om_s * (y - sa->u_at(j)));
      const double dd = un - sa->u_at(j);
      err[c] += dd * dd;
      sa->u_at(j) = un;
    }
  }

  double finish() {
    for (int l = 0; l < W; ++l) err[W - 1 - l] += verr.lane(l);
    return err[W - 1];
  }
};

// One block of W iterations for each of two independent options,
// interleaved step by step so the two serial dependence chains overlap.
template <int W>
std::pair<double, double> wavefront_block_split_x2(SplitArrays& a, double alpha_a, double om_a,
                                                   SplitArrays& b, double alpha_b,
                                                   double om_b) {
  const int m = a.m;  // both grids share m
  const int last_j = m - 2;
  const int total_steps = last_j + 2 * (W - 1);
  const int steady_lo = 1 + 2 * (W - 1);
  const int steady_hi = last_j;

  SplitBlockState<W> sa, sb;
  sa.begin(a, alpha_a, om_a);
  sb.begin(b, alpha_b, om_b);

  for (int s = 1; s <= total_steps; ++s) {
    if (s >= steady_lo && s <= steady_hi) {
      sa.vector_step(s);
      sb.vector_step(s);
    } else {
      sa.scalar_step(s, last_j);
      sb.scalar_step(s, last_j);
    }
  }
  return {sa.finish(), sb.finish()};
}

template <int W>
SolveResult price_wavefront_width(const core::OptionSpec& opt, const GridSpec& grid) {
  const Transform t = make_transform(opt, grid);
  if (t.m - 2 < 2 * W + 1) {
    throw std::invalid_argument("crank-nicolson wavefront: grid too small for SIMD width");
  }
  const double eps = epsilon_abs(t, grid);
  return run_time_loop(t, grid, [&](double* u, const double* b, const double* g, double omega) {
    long loops = 0;
    double err;
    do {
      err = wavefront_block_gather<W>(u, b, g, t.m, t.alpha, omega);
      loops += W;
    } while (err > eps && loops < kMaxItersPerStep);
    return loops;
  });
}

// Per-time-step preparation on split arrays: explicit half-step, obstacle
// fill (vectorized, then de-interleaved), Dirichlet boundaries.
void prepare_split_step(SplitArrays& sa, const Transform& t, ObstacleFiller& filler,
                        arch::AlignedVector<double>& gbuf, int n) {
  const double tau = n * t.dtau;
  const double a1 = 1.0 - t.alpha;
  const double a2 = 0.5 * t.alpha;
  const int ne = (t.m + 1) / 2, no = t.m / 2;
#pragma omp simd
  for (int i = 1; i < ne - (t.m % 2 ? 1 : 0); ++i) {
    sa.be[i] = a1 * sa.ue[i] + a2 * (sa.uo[i - 1] + sa.uo[i]);
  }
#pragma omp simd
  for (int i = 0; i < no - (t.m % 2 ? 0 : 1); ++i) {
    const int j = 2 * i + 1;
    if (j >= 1 && j <= t.m - 2) sa.bo[i] = a1 * sa.uo[i] + a2 * (sa.ue[i] + sa.ue[i + 1]);
  }
  filler.fill(t, tau, gbuf.data());
  for (int j = 0; j < t.m; ++j) sa.g_at(j) = gbuf[j];
  sa.u_at(0) = sa.g_at(0);
  sa.u_at(t.m - 1) = sa.g_at(t.m - 1);
}

template <int W>
std::pair<SolveResult, SolveResult> price_pair_width(const core::OptionSpec& opt_a,
                                                     const core::OptionSpec& opt_b,
                                                     const GridSpec& grid) {
  const Transform ta = make_transform(opt_a, grid);
  const Transform tb = make_transform(opt_b, grid);
  if (ta.m - 2 < 2 * W + 1) {
    throw std::invalid_argument("crank-nicolson wavefront: grid too small for SIMD width");
  }
  const double eps_a = epsilon_abs(ta, grid);
  const double eps_b = epsilon_abs(tb, grid);

  SplitArrays A, B;
  A.resize(ta.m);
  B.resize(tb.m);
  for (int j = 0; j < ta.m; ++j) A.u_at(j) = ta.payoff(ta.x_at(j), 0.0);
  for (int j = 0; j < tb.m; ++j) B.u_at(j) = tb.payoff(tb.x_at(j), 0.0);
  ObstacleFiller filler_a(ta), filler_b(tb);
  arch::AlignedVector<double> gbuf_a(ta.m), gbuf_b(tb.m);

  SolveResult ra, rb;
  double omega_a = grid.omega0, omega_b = grid.omega0;
  long prev_a = std::numeric_limits<long>::max(), prev_b = prev_a;

  for (int n = 1; n <= ta.n; ++n) {
    prepare_split_step(A, ta, filler_a, gbuf_a, n);
    prepare_split_step(B, tb, filler_b, gbuf_b, n);

    long loops_a = 0, loops_b = 0;
    bool done_a = false, done_b = false;
    while (!done_a || !done_b) {
      if (!done_a && !done_b) {
        const auto [ea, eb] = wavefront_block_split_x2<W>(A, ta.alpha, omega_a, B, tb.alpha,
                                                          omega_b);
        loops_a += W;
        loops_b += W;
        done_a = ea <= eps_a || loops_a >= kMaxItersPerStep;
        done_b = eb <= eps_b || loops_b >= kMaxItersPerStep;
      } else if (!done_a) {
        const double ea = wavefront_block_split<W>(A, ta.alpha, omega_a);
        loops_a += W;
        done_a = ea <= eps_a || loops_a >= kMaxItersPerStep;
      } else {
        const double eb = wavefront_block_split<W>(B, tb.alpha, omega_b);
        loops_b += W;
        done_b = eb <= eps_b || loops_b >= kMaxItersPerStep;
      }
    }
    ra.total_iterations += loops_a;
    rb.total_iterations += loops_b;
    if (loops_a > prev_a) omega_a = std::min(omega_a + grid.domega, 1.95);
    if (loops_b > prev_b) omega_b = std::min(omega_b + grid.domega, 1.95);
    prev_a = loops_a;
    prev_b = loops_b;
  }
  ra.price = ta.to_price(A.u_val(ta.mid));
  rb.price = tb.to_price(B.u_val(tb.mid));
  return {ra, rb};
}

template <int W>
SolveResult price_wavefront_split_width(const core::OptionSpec& opt, const GridSpec& grid) {
  const Transform t = make_transform(opt, grid);
  if (t.m - 2 < 2 * W + 1) {
    throw std::invalid_argument("crank-nicolson wavefront: grid too small for SIMD width");
  }
  const double eps = epsilon_abs(t, grid);

  SplitArrays sa;
  sa.resize(t.m);
  for (int j = 0; j < t.m; ++j) sa.u_at(j) = t.payoff(t.x_at(j), 0.0);
  ObstacleFiller filler(t);
  arch::AlignedVector<double> gbuf(t.m);

  SolveResult result;
  double omega = grid.omega0;
  long prev_loops = std::numeric_limits<long>::max();

  for (int n = 1; n <= t.n; ++n) {
    {
      FINBENCH_SPAN("cn.prepare_step");
      prepare_split_step(sa, t, filler, gbuf, n);
    }
    FINBENCH_SPAN("cn.wavefront_solve");
    long loops = 0;
    double err;
    do {
      err = wavefront_block_split<W>(sa, t.alpha, omega);
      loops += W;
    } while (err > eps && loops < kMaxItersPerStep);
    result.total_iterations += loops;
    if (loops > prev_loops) omega = std::min(omega + grid.domega, 1.95);
    prev_loops = loops;
  }
  result.price = t.to_price(sa.u_val(t.mid));
  return result;
}

}  // namespace

SolveResult price_wavefront(const core::OptionSpec& opt, const GridSpec& grid, Width w) {
  switch (w) {
    case Width::kScalar: return price_reference_blocked(opt, grid, 1);
    case Width::kAvx2: return price_wavefront_width<4>(opt, grid);
#if defined(FINBENCH_HAVE_AVX512)
    case Width::kAvx512:
    case Width::kAuto: return price_wavefront_width<8>(opt, grid);
#else
    case Width::kAvx512:
    case Width::kAuto: return price_wavefront_width<4>(opt, grid);
#endif
  }
  return {};
}

SolveResult price_wavefront_split(const core::OptionSpec& opt, const GridSpec& grid, Width w) {
  switch (w) {
    case Width::kScalar: return price_reference_blocked(opt, grid, 1);
    case Width::kAvx2: return price_wavefront_split_width<4>(opt, grid);
#if defined(FINBENCH_HAVE_AVX512)
    case Width::kAvx512:
    case Width::kAuto: return price_wavefront_split_width<8>(opt, grid);
#else
    case Width::kAvx512:
    case Width::kAuto: return price_wavefront_split_width<4>(opt, grid);
#endif
  }
  return {};
}

std::pair<SolveResult, SolveResult> price_wavefront_split_pair(const core::OptionSpec& a,
                                                               const core::OptionSpec& b,
                                                               const GridSpec& grid, Width w) {
  switch (w) {
    case Width::kScalar:
      return {price_reference_blocked(a, grid, 1), price_reference_blocked(b, grid, 1)};
    case Width::kAvx2: return price_pair_width<4>(a, b, grid);
#if defined(FINBENCH_HAVE_AVX512)
    case Width::kAvx512:
    case Width::kAuto: return price_pair_width<8>(a, b, grid);
#else
    case Width::kAvx512:
    case Width::kAuto: return price_pair_width<4>(a, b, grid);
#endif
  }
  return {};
}

// --- European baseline: Thomas tridiagonal solve -----------------------------

double price_european_thomas(const core::OptionSpec& opt, const GridSpec& grid) {
  const Transform t = make_transform(opt, grid);
  arch::AlignedVector<double> u(t.m), b(t.m), cp(t.m), dp(t.m);
  for (int j = 0; j < t.m; ++j) u[j] = t.payoff(t.x_at(j), 0.0);

  const double diag = 1.0 + t.alpha;
  const double off = -0.5 * t.alpha;
  for (int n = 1; n <= t.n; ++n) {
    const double tau = n * t.dtau;
    explicit_half(t, u.data(), b.data());
    const double lo = t.payoff(t.xmin, tau);
    const double hi = t.payoff(t.x_at(t.m - 1), tau);
    // Fold Dirichlet boundaries into the RHS.
    b[1] -= off * lo;
    b[t.m - 2] -= off * hi;
    // Thomas forward sweep on the interior [1, m-2].
    cp[1] = off / diag;
    dp[1] = b[1] / diag;
    for (int j = 2; j <= t.m - 2; ++j) {
      const double w = diag - off * cp[j - 1];
      cp[j] = off / w;
      dp[j] = (b[j] - off * dp[j - 1]) / w;
    }
    u[t.m - 2] = dp[t.m - 2];
    for (int j = t.m - 3; j >= 1; --j) u[j] = dp[j] - cp[j] * u[j + 1];
    u[0] = lo;
    u[t.m - 1] = hi;
  }
  return t.to_price(u[t.mid]);
}

// --- Exercise boundary ----------------------------------------------------------

std::vector<double> exercise_boundary(const core::OptionSpec& opt, const GridSpec& grid) {
  if (opt.type != core::OptionType::kPut || opt.style != core::ExerciseStyle::kAmerican) {
    throw std::invalid_argument("exercise_boundary: American put only");
  }
  const Transform t = make_transform(opt, grid);
  const double eps = epsilon_abs(t, grid);

  arch::AlignedVector<double> u(t.m), b(t.m), g(t.m);
  for (int j = 0; j < t.m; ++j) u[j] = t.payoff(t.x_at(j), 0.0);
  ObstacleFiller filler(t);

  std::vector<double> boundary(t.n);
  double omega = grid.omega0;
  long prev_loops = std::numeric_limits<long>::max();
  for (int n = 1; n <= t.n; ++n) {
    explicit_half(t, u.data(), b.data());
    filler.fill(t, n * t.dtau, g.data());
    u[0] = g[0];
    u[t.m - 1] = g[t.m - 1];
    long loops = 0;
    double err;
    do {
      err = psor_iterations(u.data(), b.data(), g.data(), t.m, t.alpha, omega, 1);
      ++loops;
    } while (err > eps && loops < kMaxItersPerStep);
    if (loops > prev_loops) omega = std::min(omega + grid.domega, 1.95);
    prev_loops = loops;

    // Largest grid point still pinned to the obstacle (u == g): the last
    // index of the exercise region, scanning up from low prices.
    const double tol = 1e-7 * std::max(1.0, std::fabs(g[0]));
    int contact = 0;
    for (int j = 1; j < t.m - 1; ++j) {
      if (u[j] - g[j] <= tol && g[j] > 0.0) contact = j;
      else if (contact > 0) break;
    }
    boundary[n - 1] = opt.strike * std::exp(t.x_at(contact));
  }
  return boundary;
}

// --- Brennan–Schwartz direct American solve -----------------------------------

SolveResult price_american_brennan_schwartz(const core::OptionSpec& opt, const GridSpec& grid) {
  if (opt.type != core::OptionType::kPut) {
    throw std::invalid_argument(
        "brennan-schwartz: implemented for puts (exercise region must be a "
        "single low-price interval)");
  }
  const Transform t = make_transform(opt, grid);
  arch::AlignedVector<double> u(t.m), b(t.m), g(t.m), dd(t.m), bb(t.m);
  for (int j = 0; j < t.m; ++j) u[j] = t.payoff(t.x_at(j), 0.0);
  ObstacleFiller filler(t);

  const double diag = 1.0 + t.alpha;
  const double off = -0.5 * t.alpha;

  SolveResult result;
  for (int n = 1; n <= t.n; ++n) {
    explicit_half(t, u.data(), b.data());
    filler.fill(t, t.dtau * n, g.data());
    u[0] = g[0];
    u[t.m - 1] = g[t.m - 1];
    b[1] -= off * u[0];
    b[t.m - 2] -= off * u[t.m - 1];

    // Backward (right-to-left) elimination: reduce to a lower-bidiagonal
    // system so the forward substitution can project onto the obstacle as
    // it sweeps out of the exercise region.
    dd[t.m - 2] = diag;
    bb[t.m - 2] = b[t.m - 2];
    for (int j = t.m - 3; j >= 1; --j) {
      const double w = off / dd[j + 1];
      dd[j] = diag - w * off;
      bb[j] = b[j] - w * bb[j + 1];
    }
    // Forward substitution with projection (the Brennan–Schwartz step).
    u[1] = std::max((bb[1]) / dd[1], g[1]);
    for (int j = 2; j <= t.m - 2; ++j) {
      u[j] = std::max((bb[j] - off * u[j - 1]) / dd[j], g[j]);
    }
    result.total_iterations += 1;  // one direct solve per step
  }
  result.price = t.to_price(u[t.mid]);
  return result;
}

// --- Option-packed direct solve (see header) ---------------------------------

namespace {

// One pack's workspace, SoA [j][lane]: the iterate u, the eliminated and
// scaled right-hand side c, the obstacle shape h, and the per-option
// elimination factors r = 1/d and e = off/d (d the eliminated diagonal);
// then 4 m doubles where one lane's obstacle is built.
constexpr int kPackArrays = 5;

std::size_t pack_doubles(int m, int w) {
  return static_cast<std::size_t>(m) * (kPackArrays * static_cast<std::size_t>(w) + 4);
}

// Writes lane l's payoff u(x, 0) into u and its obstacle shape into h
// (stride W, mirrored for calls): the ObstacleFiller shape, with the
// exponentials of one lane computed in `tmp` (4 m doubles).
template <int W>
void fill_lane(const Transform& t, int l, double* tmp, double* u, double* h) {
  const int m = t.m;
  const std::span<double> ax{tmp, static_cast<std::size_t>(m)};
  const std::span<double> bx{tmp + m, static_cast<std::size_t>(m)};
  const std::span<double> e1{tmp + 2 * m, static_cast<std::size_t>(m)};
  const std::span<double> e2{tmp + 3 * m, static_cast<std::size_t>(m)};
  for (int j = 0; j < m; ++j) {
    ax[j] = t.a * t.x_at(j);
    bx[j] = t.b * t.x_at(j);
  }
  vecmath::exp(ax, e1);
  vecmath::exp(bx, e2);
  const double sign = t.call ? -1.0 : 1.0;
  constexpr double kNoExercise = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < m; ++j) {
    const double payoff = std::max(sign * (e1[j] - e2[j]), 0.0);
    const std::size_t at = static_cast<std::size_t>(t.call ? m - 1 - j : j) * W + l;
    u[at] = payoff;
    h[at] = t.american || j == 0 || j == m - 1 ? payoff : kNoExercise;
  }
}

// Prices the W options of one pack into price[0, W).
template <int W>
void solve_pack(const core::OptionSpec* const* lane, const GridSpec& grid, double* work,
                double* price) {
  using V = simd::Vec<double, W>;
  const int m = grid.num_prices;
  const std::size_t mw = static_cast<std::size_t>(m) * W;
  double* const u = work;
  double* const c = u + mw;
  double* const h = c + mw;
  double* const r = h + mw;
  double* const e = r + mw;
  double* const tmp = e + mw;
  auto at = [](int j) { return static_cast<std::size_t>(j) * W; };

  Transform t[W]{};
  alignas(64) double a1s[W]{}, a2s[W]{}, offs[W]{}, diags[W]{}, scale[W]{};
  for (int l = 0; l < W; ++l) {
    t[l] = make_transform(*lane[l], grid);
    fill_lane<W>(t[l], l, tmp, u, h);
    a1s[l] = 1.0 - t[l].alpha;
    a2s[l] = 0.5 * t[l].alpha;
    offs[l] = -0.5 * t[l].alpha;
    diags[l] = 1.0 + t[l].alpha;
  }
  const V a1 = V::load(a1s), a2 = V::load(a2s), off = V::load(offs);

  // Elimination factors, once per option: d_{m-2} = diag and
  // d_j = diag - off^2 / d_{j+1}; r_j = 1/d_j and e_j = off r_j.
  {
    const V diag = V::load(diags), one(1.0);
    V d = diag, ej(0.0);
    for (int j = m - 2; j >= 1; --j) {
      if (j < m - 2) d = diag - off * ej;
      const V rj = one / d;
      ej = off * rj;
      rj.store(r + at(j));
      ej.store(e + at(j));
    }
  }

  for (int n = 1; n <= grid.num_steps; ++n) {
    for (int l = 0; l < W; ++l) scale[l] = std::exp(t[l].scale_coef * (t[l].dtau * n));
    const V sc = V::load(scale);
    const V lo = sc * V::load(h), hi = sc * V::load(h + at(m - 1));

    // Explicit half-step from the old iterate and right-to-left
    // elimination, fused: c_j = r_j (b_j - e_{j+1} (d_{j+1} c_{j+1})),
    // the new Dirichlet values folded into b_1 and b_{m-2}.
    V bb(0.0);
    for (int j = m - 2; j >= 1; --j) {
      const V uj = V::load(u + at(j));
      V b = a1 * uj + a2 * (V::load(u + at(j + 1)) + V::load(u + at(j - 1)));
      if (j == m - 2) b = b - off * hi;
      if (j == 1) b = b - off * lo;
      bb = j == m - 2 ? b : fnmadd(V::load(e + at(j + 1)), bb, b);
      (bb * V::load(r + at(j))).store(c + at(j));
    }
    lo.store(u);
    hi.store(u + at(m - 1));

    // Left-to-right substitution projected onto the obstacle.
    V prev = max(V::load(c + at(1)), sc * V::load(h + at(1)));
    prev.store(u + at(1));
    for (int j = 2; j <= m - 2; ++j) {
      prev = max(fnmadd(V::load(e + at(j)), prev, V::load(c + at(j))), sc * V::load(h + at(j)));
      prev.store(u + at(j));
    }
  }
  for (int l = 0; l < W; ++l) {
    const int mid = t[l].call ? m - 1 - t[l].mid : t[l].mid;
    price[l] = t[l].to_price(u[at(mid) + l]);
  }
}

template <int W>
void price_packs(std::span<const core::OptionSpec> opts, const GridSpec& grid,
                 std::span<double> out, core::ScratchPool* scratch) {
  const std::size_t n = opts.size();
  if (n == 0) return;
  core::ScratchPool::Lease lease;
  arch::AlignedVector<double> local;
  const std::size_t doubles = pack_doubles(grid.num_prices, W);
  if (scratch != nullptr) lease = scratch->claim(doubles);
  if (!lease) local.resize(doubles);
  double* const work = lease ? lease.data() : local.data();
  for (std::size_t lo = 0; lo < n; lo += W) {
    const core::OptionSpec* lane[W];
    for (int l = 0; l < W; ++l) lane[l] = &opts[std::min(lo + l, n - 1)];
    alignas(64) double price[W]{};
    solve_pack<W>(lane, grid, work, price);
    for (std::size_t i = lo; i < std::min(lo + W, n); ++i) out[i] = price[i - lo];
  }
}

}  // namespace

std::size_t direct_packed_doubles(const GridSpec& grid) {
  return pack_doubles(grid.num_prices, 8);
}

void price_direct_packed(std::span<const core::OptionSpec> opts, const GridSpec& grid,
                         std::span<double> out, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  if (grid.num_prices < 3) {
    throw std::invalid_argument("crank-nicolson direct: the grid needs at least 3 prices");
  }
  switch (w) {
    case Width::kScalar: price_packs<1>(opts, grid, out, scratch); return;
    case Width::kAvx2: price_packs<4>(opts, grid, out, scratch); return;
#if defined(FINBENCH_HAVE_AVX512)
    case Width::kAvx512:
    case Width::kAuto: price_packs<8>(opts, grid, out, scratch); return;
#else
    case Width::kAvx512:
    case Width::kAuto: price_packs<4>(opts, grid, out, scratch); return;
#endif
  }
}

// --- Generalized theta scheme ---------------------------------------------------

double mesh_ratio(const core::OptionSpec& opt, const GridSpec& grid) {
  return make_transform(opt, grid).alpha;
}

double price_european_theta(const core::OptionSpec& opt, const GridSpec& grid, double theta,
                            bool rannacher) {
  if (theta < 0.0 || theta > 1.0) {
    throw std::invalid_argument("theta scheme: theta must be in [0, 1]");
  }
  const Transform t = make_transform(opt, grid);
  arch::AlignedVector<double> u(t.m), b(t.m), cp(t.m), dp(t.m);
  for (int j = 0; j < t.m; ++j) u[j] = t.payoff(t.x_at(j), 0.0);

  // u^{n+1}_j - theta*alpha*(u^{n+1}_{j+1} - 2u^{n+1}_j + u^{n+1}_{j-1})
  //   = u^n_j + (1-theta)*alpha*(u^n_{j+1} - 2u^n_j + u^n_{j-1})
  for (int n = 1; n <= t.n; ++n) {
    // Rannacher start-up: two fully implicit steps damp the components
    // the kinked payoff excites (CN only damps them marginally).
    const double th = (rannacher && n <= 2) ? 1.0 : theta;
    const double ae = (1.0 - th) * t.alpha;
    const double diag = 1.0 + 2.0 * th * t.alpha;
    const double off = -th * t.alpha;
    const double tau = n * t.dtau;
#pragma omp simd
    for (int j = 1; j < t.m - 1; ++j) {
      b[j] = u[j] + ae * (u[j + 1] - 2.0 * u[j] + u[j - 1]);
    }
    const double lo = t.payoff(t.xmin, tau);
    const double hi = t.payoff(t.x_at(t.m - 1), tau);
    if (th == 0.0) {
      // Pure explicit: no solve.
      for (int j = 1; j < t.m - 1; ++j) u[j] = b[j];
    } else {
      b[1] -= off * lo;
      b[t.m - 2] -= off * hi;
      cp[1] = off / diag;
      dp[1] = b[1] / diag;
      for (int j = 2; j <= t.m - 2; ++j) {
        const double w = diag - off * cp[j - 1];
        cp[j] = off / w;
        dp[j] = (b[j] - off * dp[j - 1]) / w;
      }
      u[t.m - 2] = dp[t.m - 2];
      for (int j = t.m - 3; j >= 1; --j) u[j] = dp[j] - cp[j] * u[j + 1];
    }
    u[0] = lo;
    u[t.m - 1] = hi;
  }
  return t.to_price(u[t.mid]);
}

// --- Batch driver -------------------------------------------------------------

namespace {

// Options per task of the batch driver: a pair for the ILP-paired
// wavefront, a pack for the direct solve, one option otherwise.
std::size_t unit_of(Variant v, Width w) {
  switch (v) {
    case Variant::kWavefrontSplitPaired: return 2;
    case Variant::kDirectPacked: {
      const int lanes = w == Width::kAuto ? vecmath::max_width() : static_cast<int>(w);
      return static_cast<std::size_t>(lanes);
    }
    default: return 1;
  }
}

void price_unit(std::span<const core::OptionSpec> opts, const GridSpec& grid, Variant v,
                std::span<double> out, Width w, core::ScratchPool* scratch) {
  if (v == Variant::kDirectPacked) {
    price_direct_packed(opts, grid, out, w, scratch);
  } else if (v == Variant::kWavefrontSplitPaired && opts.size() == 2) {
    const auto [ra, rb] = price_wavefront_split_pair(opts[0], opts[1], grid, w);
    out[0] = ra.price;
    out[1] = rb.price;
  } else {
    for (std::size_t i = 0; i < opts.size(); ++i) {
      switch (v) {
        case Variant::kReference: out[i] = price_reference(opts[i], grid).price; break;
        case Variant::kWavefront: out[i] = price_wavefront(opts[i], grid, w).price; break;
        default:  // split, and the paired variant's odd last option
          out[i] = price_wavefront_split(opts[i], grid, w).price;
          break;
      }
    }
  }
}

}  // namespace

void price_batch(std::span<const core::OptionSpec> opts, const GridSpec& grid, Variant v,
                 std::span<double> out, Width w, core::ScratchPool* scratch) {
  assert(out.size() >= opts.size());
  const std::size_t n = opts.size();
  static obs::Counter& priced = obs::counter("cn.options_priced");
  priced.add(static_cast<std::uint64_t>(n));
  const std::size_t unit = unit_of(v, w);
  const auto units = static_cast<std::ptrdiff_t>((n + unit - 1) / unit);
  // An exception must not leave the parallel region (that terminates the
  // process): the first one is kept and rethrown after the join.
  std::exception_ptr error;
#pragma omp parallel for schedule(dynamic, 1)
  for (std::ptrdiff_t k = 0; k < units; ++k) {
    FINBENCH_SPAN("cn.unit");
    const std::size_t lo = static_cast<std::size_t>(k) * unit;
    const std::size_t m = std::min(unit, n - lo);
    try {
      price_unit(opts.subspan(lo, m), grid, v, out.subspan(lo, m), w, scratch);
    } catch (...) {
#pragma omp critical(cn_batch_error)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace finbench::kernels::cn
