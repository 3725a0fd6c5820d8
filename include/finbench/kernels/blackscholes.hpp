// finbench/kernels/blackscholes.hpp
//
// Kernel 1: closed-form Black–Scholes European pricing (paper Sec. IV-A,
// Fig. 4). Prices `nopt` call/put pairs from 3 inputs per option (S, K, T)
// with batch-shared r and sigma — ~200 flops, 24 bytes read, 16 bytes
// written per option, so the optimized kernel is DRAM-bandwidth-bound.
//
// Variants (paper's stacked-bar levels):
//   reference    — scalar AOS loop, exactly Lis. 1 (cnd via libm erfc)
//   basic        — same AOS loop under "#pragma omp simd":
//                  the compiler vectorizes but every field access is a
//                  gather/scatter across `width` cache lines
//   intermediate — AOS->SOA + explicit SIMD across options (one option per
//                  lane, Vec classes), cnd -> erf substitution, and the
//                  put from call/put parity (Sec. IV-A2)
//   advanced_vml — SOA + VML-style array math: whole-array transcendental
//                  passes through temporaries. Matches the paper's
//                  "Advanced (Using VML)" bar; its larger cache footprint
//                  is the reason SVML-style fusion can win (Sec. IV-A3)
//   blocked      — AoSoA lane-blocks + register tiling: one block per
//                  register tile, ×2 unrolled, streaming stores — the
//                  paper's full "Advanced" data-path recipe (Sec. IV-A3)
//
// All SIMD variants take a Width so the 4-wide (SNB-EP-class) and 8-wide
// (KNC-class) paths can be measured separately.
//
// The intermediate, blocked and fused kernels, in double and in single
// precision, run one Black–Scholes model per precision (erf substitution,
// put via parity; the dividend-free algebra picked at compile time)
// through one driver per layout: SOA, blocked and fused AOS. The levels
// differ only in data layout, as in Fig. 4. Every driver prices its
// n mod W tail as one tile padded with the last option, so at equal width
// the three layouts give the same bits for every option (the SP ones
// after widening), and an option's price does not depend on where it
// sits in the batch. Every pricing entry point adds its batch to the
// bs.options_priced counter.

#pragma once

#include "finbench/core/option.hpp"
#include "finbench/vecmath/array_math.hpp"

namespace finbench::core {
class ScratchPool;  // finbench/core/scratch_pool.hpp
}

namespace finbench::kernels::bs {

using vecmath::Width;

// Cost model constants used for roofline bounds (see DESIGN.md).
inline constexpr double kFlopsPerOption = 200.0;
inline constexpr double kBytesPerOption = 40.0;  // 24 in + 16 out

// All pricing entry points take non-owning views (pass-by-value: a view
// is a handful of span headers): a core::Portfolio's own view
// (`price_intermediate(book.view().soa)`), an arena tile from
// core::convert, or a caller's arrays — never a copy.
void price_reference(core::BsAosView batch);
void price_basic(core::BsAosView batch);
void price_intermediate(core::BsSoaView batch, Width w = Width::kAuto);

// The VML variant's chunk temporaries (d1/d2/xexp/qlog) come from the
// caller's scratch pool when one is supplied (one slot of 4 x kVmlChunk
// doubles per concurrent worker); a null pool falls back to per-call
// aligned allocation, preserving standalone use.
inline constexpr std::size_t kVmlChunk = 4096;
void price_advanced_vml(core::BsSoaView batch, Width w = Width::kAuto,
                        core::ScratchPool* scratch = nullptr);

// The blocked driver: register-tiled pricing straight off the blocked
// AoSoA layout, one lane-block sub-run per register tile, ×2 unrolled,
// streaming stores, no gathers. The `_sp` flavor computes in single
// precision over the same double storage (f64->f32 conversion stays in
// register), doubling the lanes per tile at ~1e-7 absolute accuracy.
void price_blocked(core::BsBlockedView batch, Width w = Width::kAuto);

// The fused AOS driver (AOS -> blocked -> AOS): transposes one tile at a
// time into a stack-resident lane-block tile (L1-hot), prices it in
// register, and writes call/put straight back into the AOS records. This
// is the honest "incl. conversion" form of the blocked kernel — the
// layout change composes with the tiling instead of costing a separate
// DRAM pass.
void price_blocked_from_aos(core::BsAosView batch, Width w = Width::kAuto);

// Single-precision variant of the intermediate kernel (the same SOA
// driver over float arrays): one option per float lane, twice the double
// lanes at each Width (8 at kAvx2, 16 at kAvx512). Accuracy ~1e-6
// relative — the precision/lane-count trade Table I's SP peak rows
// quantify.
void price_intermediate_sp(core::BsSoaFView batch, Width w = Width::kAuto);
void price_blocked_sp(core::BsBlockedView batch, Width w = Width::kAuto);

// SP twin of price_blocked_from_aos: the f64 AOS inputs narrow to f32 in
// register (cvtpd_ps on a stack-resident tile), price through the SP
// model, and widen back into the AOS records — the fused "incl.
// conversion" pipeline with twice the lanes per tile (8 on AVX2, 16 on
// AVX-512). Accuracy matches the other SP rows (~1e-7 absolute).
void price_blocked_from_aos_f32(core::BsAosView batch, Width w = Width::kAuto);

// --- Batch greeks (extension): the full sensitivity set, SIMD across
// options. Call and put greeks come from one d1/d2 evaluation per option
// (put values via parity relations), so the whole set costs barely more
// than pricing. Validated against core::black_scholes_greeks in tests.
struct GreeksBatchSoa {
  arch::AlignedVector<double> delta_call, delta_put;
  arch::AlignedVector<double> gamma;       // same for call and put
  arch::AlignedVector<double> vega;        // same for call and put
  arch::AlignedVector<double> theta_call, theta_put;
  arch::AlignedVector<double> rho_call, rho_put;

  std::size_t size() const { return gamma.size(); }
  void resize(std::size_t n) {
    delta_call.resize(n);
    delta_put.resize(n);
    gamma.resize(n);
    vega.resize(n);
    theta_call.resize(n);
    theta_put.resize(n);
    rho_call.resize(n);
    rho_put.resize(n);
  }
};

void greeks_intermediate(core::BsSoaCView batch, GreeksBatchSoa& out,
                         Width w = Width::kAuto);

// --- Batch implied volatility (extension): the model-calibration inner
// loop, SIMD across quotes. Safeguarded Newton (bisection fallback) with
// every lane iterating until its own convergence; quotes outside the
// arbitrage-free band come back as -1. batch.vol is ignored; batch.call /
// batch.put are not touched.
void implied_vol_intermediate(core::BsSoaCView batch,
                              std::span<const double> call_prices, std::span<double> vols_out,
                              Width w = Width::kAuto);

}  // namespace finbench::kernels::bs
