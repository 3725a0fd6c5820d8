// finbench/obs/metrics.hpp
//
// Process-wide named metrics: counters (monotonic, relaxed-atomic adds),
// gauges (last-value), and stats (count/sum/min/max/stddev summaries).
// Kernels record domain quantities ("mc.paths", "rng.normals"); the
// parallel runtime records per-thread wall times so load imbalance is
// visible; the run report (finbench/obs/run_report.hpp) snapshots the
// whole registry into JSON.
//
// Hot-path idiom — resolve the handle once, then add with a relaxed
// atomic:
//
//   static obs::Counter& paths = obs::counter("mc.paths");
//   paths.add(npath);
//
// Handles returned by counter()/gauge()/stat() are valid for the process
// lifetime.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace finbench::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Streaming summary statistic. record() is thread-safe (per-stat spinlock);
// intended for per-region / per-thread observations, not per-item loops.
class Stat {
 public:
  void record(double x);

  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0, mean = 0.0, stddev = 0.0;
  };
  Summary summary() const;
  void reset();

 private:
  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::uint64_t n_ = 0;
  double sum_ = 0.0, sumsq_ = 0.0, min_ = 0.0, max_ = 0.0;
};

// Look up (creating on first use) a metric by name. References are stable.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Stat& stat(std::string_view name);

// Snapshot of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Stat::Summary>> stats;
};
MetricsSnapshot snapshot_metrics();

// Zero every registered metric (tests).
void reset_metrics();

// ---------------------------------------------------------------------------
// Parallel-runtime hooks (implemented here, called from arch/parallel.hpp).
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_parallel_timing;
}

// Master switch for per-participant region timing in engine::ThreadPool runs.
// Off by default; the bench harness enables it alongside --trace/--json.
void enable_parallel_timing(bool on = true);
inline bool parallel_timing_enabled() {
  return detail::g_parallel_timing.load(std::memory_order_relaxed);
}

// Record one parallel region's per-thread wall times (aggregated by the
// caller): updates "parallel.<site>.thread_seconds" and the imbalance stat
// "parallel.<site>.imbalance" (max/mean thread time; 1.0 = perfectly even).
void record_parallel_region(const char* site, int nthreads, double min_sec, double max_sec,
                            double sum_sec);

}  // namespace finbench::obs
