// finbench/arch/parallel.hpp
//
// The thread count. Threads are started by one runtime only, the
// engine's ThreadPool (finbench/engine/thread_pool.hpp); the kernels are
// serial loops over the units they are handed, and the pool runs them
// range by range. num_threads() sizes the pool (and the one OpenMP region
// left, the mini-STREAM triad of arch::machine_model).

#pragma once

#include <atomic>

#include <omp.h>

namespace finbench::arch {

// How a pool run hands out its chunks: always the atomic ticket counter
// (chunk self-scheduling). The one-enumerator enum exists only for
// PricingRequest::schedule and tune::DispatchPlan::schedule, which
// perfbench/src/books.cpp still assigns one to the other; nothing in the
// library reads either field.
enum class Schedule {
  kDynamic,
};

namespace detail {

inline std::atomic<int>& cached_num_threads() {
  static std::atomic<int> v{0};  // 0 = not yet detected
  return v;
}

}  // namespace detail

// Threads per run: OMP_NUM_THREADS when set, else the logical CPUs
// (omp_get_max_threads reads both without starting a team). Cached after
// the first call; set_num_threads() keeps the cache coherent.
inline int num_threads() {
  int n = detail::cached_num_threads().load(std::memory_order_relaxed);
  if (n > 0) return n;
  n = omp_get_max_threads();
  detail::cached_num_threads().store(n, std::memory_order_relaxed);
  return n;
}

// Override the thread count (the --threads N flag). n <= 0 is ignored.
// Call it before the first ThreadPool::shared() use: the shared pool is
// sized once.
inline void set_num_threads(int n) {
  if (n <= 0) return;
  omp_set_num_threads(n);
  detail::cached_num_threads().store(n, std::memory_order_relaxed);
}

}  // namespace finbench::arch
