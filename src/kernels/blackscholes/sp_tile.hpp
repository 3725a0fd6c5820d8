// Internal to src/kernels/blackscholes: the single-precision Black–Scholes
// model every SP kernel prices through (SOA, blocked and fused AOS), at any
// float lane count. Not installed.

#pragma once

#include "finbench/vecmath/vecmathf.hpp"

namespace finbench::kernels::bs {

template <class VF>
struct SpOut {
  VF call, put;
};

// Same algebra as the DP tiles, with cnd via the SP erf polynomial
// (~1.5e-7 abs; Fig. 4's SP rows trade this for twice the lanes). A
// continuous dividend yield `div` discounts the spot and the drift.
template <class VF>
inline SpOut<VF> sp_tile(VF S, VF K, VF T, float rate, float vol, float div) {
  const VF r(rate);
  const VF sig22(vol * vol / 2);
  const VF one(1.0f);
  const VF qlog = vecmath::logf(S / K);
  const VF denom = one / (VF(vol) * sqrt(T));
  VF drift = r;
  VF sq = S;
  if (div != 0.0f) {
    drift = VF(rate - div);
    sq = S * vecmath::expf(VF(-div) * T);
  }
  const VF d1 = (qlog + (drift + sig22) * T) * denom;
  const VF d2 = (qlog + (drift - sig22) * T) * denom;
  const VF xexp = K * vecmath::expf(-r * T);
  const VF c = sq * vecmath::cndf(d1) - xexp * vecmath::cndf(d2);
  return {c, c - sq + xexp};
}

}  // namespace finbench::kernels::bs
