// finbench/robust/denormal.hpp
//
// Per-thread denormal policy. Subnormal doubles make SSE/AVX arithmetic
// take microcode assists (~100x slowdown per op), and whether a worker
// thread flushes them is per-thread MXCSR state — so a pool where some
// threads flush and some don't produces timing *and* bitwise result
// differences depending on which participant ran a chunk. The pool
// therefore installs one policy on every worker at startup and mirrors it
// onto the caller for the duration of its participation, and the run
// report records which policy was active.

#pragma once

#include <cstdint>
#include <string_view>

namespace finbench::robust {

// Install flush-to-zero + denormals-are-zero on the calling thread.
// No-op (returns false) on targets without SSE MXCSR.
bool install_denormal_ftz() noexcept;

// Clear flush-to-zero + denormals-are-zero on the calling thread (IEEE
// subnormals), returning the previous state for restore_fp_state. The
// sanitizer classifies under IEEE semantics this way even on a pool
// participant, where DAZ would read a denormal input as zero.
std::uint32_t clear_denormal_ftz() noexcept;

// Save / restore the calling thread's full floating-point environment
// word (MXCSR on x86). Used to scope the pool policy around the caller's
// participation without leaking it into user code.
std::uint32_t save_fp_state() noexcept;
void restore_fp_state(std::uint32_t state) noexcept;

// The policy string recorded in the run report: "ftz+daz" when
// install_denormal_ftz is effective on this target, "ieee" otherwise.
std::string_view denormal_mode_string() noexcept;

}  // namespace finbench::robust
