// Per-thread denormal policy (FTZ + DAZ). MXCSR is thread state: the pool
// installs this on every worker at startup and scopes it around the
// calling thread's participation, so every participant computes under the
// same policy and chunked results never depend on which thread ran which
// chunk.

#include "finbench/robust/denormal.hpp"

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#include <immintrin.h>
#define FINBENCH_HAS_MXCSR 1
#else
#define FINBENCH_HAS_MXCSR 0
#endif

namespace finbench::robust {

bool install_denormal_ftz() noexcept {
#if FINBENCH_HAS_MXCSR
  // Bits 15 (FTZ) and 6 (DAZ) of MXCSR.
  _mm_setcsr(_mm_getcsr() | 0x8040u);
  return true;
#else
  return false;
#endif
}

std::uint32_t clear_denormal_ftz() noexcept {
#if FINBENCH_HAS_MXCSR
  const std::uint32_t prev = _mm_getcsr();
  _mm_setcsr(prev & ~0x8040u);
  return prev;
#else
  return 0;
#endif
}

std::uint32_t save_fp_state() noexcept {
#if FINBENCH_HAS_MXCSR
  return _mm_getcsr();
#else
  return 0;
#endif
}

void restore_fp_state(std::uint32_t state) noexcept {
#if FINBENCH_HAS_MXCSR
  _mm_setcsr(state);
#else
  (void)state;
#endif
}

std::string_view denormal_mode_string() noexcept {
#if FINBENCH_HAS_MXCSR
  return "ftz+daz";
#else
  return "ieee";
#endif
}

}  // namespace finbench::robust
