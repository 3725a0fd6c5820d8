#include "finbench/kernels/cranknicolson.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

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
  if (g.num_prices < 3 || g.num_steps < 1) {
    throw std::invalid_argument("crank-nicolson: the grid needs at least 3 prices and 1 step");
  }
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
  const double half = 5.0 * o.vol * std::sqrt(o.years) + std::fabs(t.x0) + 0.5;
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

// --- PSOR (Lis. 6/7) ---------------------------------------------------------

// Lis. 7's projected SOR update of one point from its neighbours' current
// values: returns the new u_j and adds its squared change to err.
inline double psor_point(double uj, double left, double right, double bj, double gj,
                         double coeff, double a2, double omega, double& err) {
  const double y = coeff * (bj + a2 * (left + right));
  const double un = std::max(gj, uj + omega * (y - uj));
  const double d = un - uj;
  err += d * d;
  return un;
}

// Runs `block` sweeps; returns the squared-update error of the LAST
// sweep (callers decide convergence). Updates u in place.
double psor_iterations(double* u, const double* b, const double* g, int m, double alpha,
                       double omega, int block) {
  const double coeff = 1.0 / (1.0 + alpha);
  const double a2 = 0.5 * alpha;
  double err = 0.0;
  for (int it = 0; it < block; ++it) {
    err = 0.0;
    for (int j = 1; j < m - 1; ++j) {
      u[j] = psor_point(u[j], u[j - 1], u[j + 1], b[j], g[j], coeff, a2, omega, err);
    }
  }
  return err;
}

// Lis. 6's relaxation rule, which every PSOR driver follows: omega starts
// at 1 and rises by 0.05, up to 1.95, after each time step that needed
// more sweeps than the step before.
struct Relaxation {
  double omega = 1.0;
  long prev_sweeps = std::numeric_limits<long>::max();

  void after_step(long sweeps) {
    if (sweeps > prev_sweeps) omega = std::min(omega + 0.05, 1.95);
    prev_sweeps = sweeps;
  }
};

// One time step's sweep count and stopping rule: the step is done once a
// block's last sweep moved u by at most eps (summed squares), or after
// kMaxItersPerStep sweeps.
struct StepSweeps {
  double eps;
  long count = 0;

  // Counts a block of `sweeps` whose last sweep moved u by `err`.
  bool done(double err, int sweeps) {
    count += sweeps;
    return err <= eps || count >= kMaxItersPerStep;
  }
};

struct NoHook {
  void operator()(int, const double*, const double*) const {}
};

// One solve on the natural layout. Each time step runs the explicit
// half-step, sets the obstacle and the Dirichlet boundaries, then
// `solve_step(u, b, g, omega)`, which returns the sweeps it ran (b is the
// solver's to overwrite); `on_step(n, u, g)` then sees solved step n.
template <class StepSolver, class OnStep = NoHook>
SolveResult run_time_loop(const Transform& t, StepSolver&& solve_step, OnStep&& on_step = {}) {
  arch::AlignedVector<double> u(t.m), b(t.m), g(t.m);
  for (int j = 0; j < t.m; ++j) u[j] = t.payoff(t.x_at(j), 0.0);
  ObstacleFiller filler(t);

  SolveResult result;
  Relaxation relax;
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
    const long sweeps = solve_step(u.data(), b.data(), g.data(), relax.omega);
    result.total_iterations += sweeps;
    relax.after_step(sweeps);
    on_step(n, u.data(), g.data());
  }
  result.price = t.to_price(u[t.mid]);
  return result;
}

// The scalar PSOR step: sweeps checking convergence every `block`.
auto scalar_psor(const Transform& t, double eps, int block) {
  return [&t, eps, block](double* u, const double* b, const double* g, double omega) {
    StepSweeps step{eps};
    while (!step.done(psor_iterations(u, b, g, t.m, t.alpha, omega, block), block)) {
    }
    return step.count;
  };
}

}  // namespace

SolveResult price_reference(const core::OptionSpec& opt, const GridSpec& grid) {
  return price_reference_blocked(opt, grid, 1);
}

SolveResult price_reference_blocked(const core::OptionSpec& opt, const GridSpec& grid,
                                    int block) {
  const Transform t = make_transform(opt, grid);
  return run_time_loop(t, scalar_psor(t, epsilon_abs(t, grid), block));
}

// --- Wavefront SIMD ----------------------------------------------------------

namespace {

// make_transform for a wavefront of W lanes, which needs 2W+1 interior
// points.
template <int W>
Transform wavefront_transform(const core::OptionSpec& opt, const GridSpec& grid) {
  const Transform t = make_transform(opt, grid);
  if (t.m - 2 < 2 * W + 1) {
    throw std::invalid_argument("crank-nicolson wavefront: grid too small for SIMD width");
  }
  return t;
}

// One block of W PSOR sweeps run along the t = 2k + j wavefront. Lane l
// carries sweep c = W-1-l of the block, so its point j = base + 2l
// ascends with l; the ramp steps, where fewer than W sweeps are active,
// update point by point. finish() returns the squared-update error of
// the block's newest sweep (c = W-1).
template <int W>
struct WavefrontBlock {
  using V = simd::Vec<double, W>;

  double coeff_s, a2_s, omega_s;
  V coeff, a2, om;
  V verr = V(0.0);
  double err[W] = {};  // err[c] for sweep c of this block

  WavefrontBlock(double alpha, double omega)
      : coeff_s(1.0 / (1.0 + alpha)),
        a2_s(0.5 * alpha),
        omega_s(omega),
        coeff(coeff_s),
        a2(a2_s),
        om(omega) {}

  // psor_point on all W lanes.
  V update(V um, V up, V uc, V bv, V gv) {
    const V y = coeff * fmadd(a2, um + up, bv);
    const V un = max(gv, fmadd(om, y - uc, uc));
    const V d = un - uc;
    verr = fmadd(d, d, verr);
    return un;
  }

  double point(double uj, double left, double right, double bj, double gj, int c) {
    return psor_point(uj, left, right, bj, gj, coeff_s, a2_s, omega_s, err[c]);
  }

  double finish() {
    for (int l = 0; l < W; ++l) err[W - 1 - l] += verr.lane(l);
    return err[W - 1];
  }
};

// The natural layout, lanes gathered at stride 2 ("Manual SIMD").
template <int W>
struct GatherBlock : WavefrontBlock<W> {
  using V = simd::Vec<double, W>;

  double* u;
  const double* b;
  const double* g;
  alignas(64) std::int32_t idx[W];

  GatherBlock(double* u_, const double* b_, const double* g_, double alpha, double omega)
      : WavefrontBlock<W>(alpha, omega), u(u_), b(b_), g(g_) {
    for (int l = 0; l < W; ++l) idx[l] = 2 * l;
  }

  void vector_step(int base) {
    const V un = this->update(V::gather(u + base - 1, idx), V::gather(u + base + 1, idx),
                              V::gather(u + base, idx), V::gather(b + base, idx),
                              V::gather(g + base, idx));
    alignas(64) double tmp[W];
    un.store(tmp);
    for (int l = 0; l < W; ++l) u[base + 2 * l] = tmp[l];
  }

  void point_step(int j, int c) { u[j] = this->point(u[j], u[j - 1], u[j + 1], b[j], g[j], c); }
};

// Parity-split state for the advanced variant: even/odd j live in separate
// contiguous arrays, so wavefront lane accesses are unit-stride.
struct SplitArrays {
  arch::AlignedVector<double> ue, uo, be, bo, ge, go;

  void resize(int m) {
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

// The parity-split layout: every lane access is contiguous (loadu/storeu),
// no gathers — the "data structure transform".
template <int W>
struct SplitBlock : WavefrontBlock<W> {
  using V = simd::Vec<double, W>;

  SplitArrays& sa;

  SplitBlock(SplitArrays& arrays, double alpha, double omega)
      : WavefrontBlock<W>(alpha, omega), sa(arrays) {}

  void vector_step(int base) {
    // Lane l holds j = base + 2l, all of base's parity; j-1 and j+1 are in
    // the other parity's array.
    double* uc;
    const double *bc, *gc, *nb;
    if (base & 1) {
      uc = sa.uo.data();
      bc = sa.bo.data();
      gc = sa.go.data();
      nb = sa.ue.data();
    } else {
      uc = sa.ue.data();
      bc = sa.be.data();
      gc = sa.ge.data();
      nb = sa.uo.data();
    }
    const int half = base >> 1;
    const V un = this->update(V::loadu(nb + ((base - 1) >> 1)), V::loadu(nb + ((base + 1) >> 1)),
                              V::loadu(uc + half), V::loadu(bc + half), V::loadu(gc + half));
    un.storeu(uc + half);
  }

  void point_step(int j, int c) {
    sa.u_at(j) = this->point(sa.u_val(j), sa.u_val(j - 1), sa.u_val(j + 1), sa.b_at(j),
                             sa.g_at(j), c);
  }
};

// Runs one block of W sweeps on each of `blocks` (all on m points) in
// lockstep: wavefront step s updates point j = s - 2c of sweep c. Several
// independent blocks interleave their serial store->load chains, the
// ILP pairing of price_wavefront_split_pair.
template <int W, class... Blocks>
void run_wavefront(int m, Blocks&... blocks) {
  const int last_j = m - 2;
  const int total_steps = last_j + 2 * (W - 1);
  const int steady_lo = 1 + 2 * (W - 1);  // all W sweeps active up to last_j
  for (int s = 1; s <= total_steps; ++s) {
    if (s >= steady_lo && s <= last_j) {
      (blocks.vector_step(s - 2 * (W - 1)), ...);
    } else {
      for (int c = 0; c < W; ++c) {
        const int j = s - 2 * c;
        if (j >= 1 && j <= last_j) (blocks.point_step(j, c), ...);
      }
    }
  }
}

// One block alone; returns its newest sweep's squared update.
template <int W, class Block>
double run_block(int m, Block block) {
  run_wavefront<W>(m, block);
  return block.finish();
}

template <int W>
SolveResult price_wavefront_width(const core::OptionSpec& opt, const GridSpec& grid) {
  const Transform t = wavefront_transform<W>(opt, grid);
  const double eps = epsilon_abs(t, grid);
  return run_time_loop(t, [&](double* u, const double* b, const double* g, double omega) {
    StepSweeps step{eps};
    while (!step.done(run_block<W>(t.m, GatherBlock<W>(u, b, g, t.alpha, omega)), W)) {
    }
    return step.count;
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

// One option's PSOR solve on split arrays, advanced a time step at a time:
// prepare(n), blocks until converged, end_step().
template <int W>
struct SplitSolve {
  Transform t;
  SplitArrays sa;
  ObstacleFiller filler;
  arch::AlignedVector<double> gbuf;
  StepSweeps step;
  Relaxation relax;
  SolveResult result;

  SplitSolve(const core::OptionSpec& opt, const GridSpec& grid)
      : t(wavefront_transform<W>(opt, grid)), filler(t), gbuf(t.m), step{epsilon_abs(t, grid)} {
    sa.resize(t.m);
    for (int j = 0; j < t.m; ++j) sa.u_at(j) = t.payoff(t.x_at(j), 0.0);
  }

  void prepare(int n) {
    prepare_split_step(sa, t, filler, gbuf, n);
    step.count = 0;
  }

  SplitBlock<W> block() { return SplitBlock<W>(sa, t.alpha, relax.omega); }

  // Runs one block alone; true once the step has converged.
  bool sweep() { return step.done(run_block<W>(t.m, block()), W); }

  void end_step() {
    result.total_iterations += step.count;
    relax.after_step(step.count);
  }

  SolveResult finish() {
    result.price = t.to_price(sa.u_val(t.mid));
    return result;
  }
};

template <int W>
SolveResult price_wavefront_split_width(const core::OptionSpec& opt, const GridSpec& grid) {
  SplitSolve<W> s(opt, grid);
  for (int n = 1; n <= s.t.n; ++n) {
    {
      FINBENCH_SPAN("cn.prepare_step");
      s.prepare(n);
    }
    FINBENCH_SPAN("cn.wavefront_solve");
    while (!s.sweep()) {
    }
    s.end_step();
  }
  return s.finish();
}

// Both options' blocks run in lockstep until one converges; the other
// then finishes its step alone.
template <int W>
std::pair<SolveResult, SolveResult> price_pair_width(const core::OptionSpec& opt_a,
                                                     const core::OptionSpec& opt_b,
                                                     const GridSpec& grid) {
  SplitSolve<W> a(opt_a, grid), b(opt_b, grid);
  for (int n = 1; n <= a.t.n; ++n) {
    a.prepare(n);
    b.prepare(n);
    bool done_a = false, done_b = false;
    while (!done_a && !done_b) {
      SplitBlock<W> ba = a.block(), bb = b.block();
      run_wavefront<W>(a.t.m, ba, bb);
      done_a = a.step.done(ba.finish(), W);
      done_b = b.step.done(bb.finish(), W);
    }
    while (!done_a) done_a = a.sweep();
    while (!done_b) done_b = b.sweep();
    a.end_step();
    b.end_step();
  }
  return {a.finish(), b.finish()};
}

}  // namespace

// At kScalar the wavefronts run the iteration-identical scalar reference.
SolveResult price_wavefront(const core::OptionSpec& opt, const GridSpec& grid, Width w) {
  return simd::with_lanes<double>(w, [&](auto L) {
    if constexpr (L == 1) return price_reference_blocked(opt, grid, 1);
    else return price_wavefront_width<L>(opt, grid);
  });
}

SolveResult price_wavefront_split(const core::OptionSpec& opt, const GridSpec& grid, Width w) {
  return simd::with_lanes<double>(w, [&](auto L) {
    if constexpr (L == 1) return price_reference_blocked(opt, grid, 1);
    else return price_wavefront_split_width<L>(opt, grid);
  });
}

std::pair<SolveResult, SolveResult> price_wavefront_split_pair(const core::OptionSpec& a,
                                                               const core::OptionSpec& b,
                                                               const GridSpec& grid, Width w) {
  return simd::with_lanes<double>(w, [&](auto L) {
    if constexpr (L == 1) {
      return std::pair{price_reference_blocked(a, grid, 1), price_reference_blocked(b, grid, 1)};
    } else {
      return price_pair_width<L>(a, b, grid);
    }
  });
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
  std::vector<double> boundary(t.n);
  // Largest grid point still pinned to the obstacle (u == g): the last
  // index of the exercise region, scanning up from low prices.
  auto scan = [&](int n, const double* u, const double* g) {
    const double tol = 1e-7 * std::max(1.0, std::fabs(g[0]));
    int contact = 0;
    for (int j = 1; j < t.m - 1; ++j) {
      if (u[j] - g[j] <= tol && g[j] > 0.0) contact = j;
      else if (contact > 0) break;
    }
    boundary[n - 1] = opt.strike * std::exp(t.x_at(contact));
  };
  run_time_loop(t, scalar_psor(t, epsilon_abs(t, grid), 1), scan);
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
  arch::AlignedVector<double> dd(t.m), bb(t.m);
  const double diag = 1.0 + t.alpha;
  const double off = -0.5 * t.alpha;
  // One direct solve per step, counted as one iteration.
  return run_time_loop(t, [&](double* u, double* b, const double* g, double) -> long {
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
    return 1;
  });
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
  core::ScratchBuf work(scratch, pack_doubles(grid.num_prices, W));
  for (std::size_t lo = 0; lo < n; lo += W) {
    const core::OptionSpec* lane[W];
    for (int l = 0; l < W; ++l) lane[l] = &opts[std::min(lo + l, n - 1)];
    alignas(64) double price[W]{};
    solve_pack<W>(lane, grid, work.data(), price);
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
  simd::with_lanes<double>(w, [&](auto L) { price_packs<L>(opts, grid, out, scratch); });
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

// Options per unit of the batch driver: a pair for the ILP-paired
// wavefront, one option otherwise.
std::size_t unit_of(Variant v) { return v == Variant::kWavefrontSplitPaired ? 2 : 1; }

void price_unit(std::span<const core::OptionSpec> opts, const GridSpec& grid, Variant v,
                std::span<double> out, Width w) {
  if (v == Variant::kWavefrontSplitPaired && opts.size() == 2) {
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
  if (v == Variant::kDirectPacked) {
    // One call over every pack: one leased workspace for the batch.
    FINBENCH_SPAN("cn.unit");
    price_direct_packed(opts, grid, out, w, scratch);
    return;
  }
  const std::size_t unit = unit_of(v);
  for (std::size_t lo = 0; lo < n; lo += unit) {
    FINBENCH_SPAN("cn.unit");
    const std::size_t m = std::min(unit, n - lo);
    price_unit(opts.subspan(lo, m), grid, v, out.subspan(lo, m), w);
  }
}

}  // namespace finbench::kernels::cn
