// perfbench/src/common.hpp
//
// What every workload of the benchmark shares: the command line, the
// steady clock, the result a workload hands back to main(), and the run
// fingerprint.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "finbench/engine/engine.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of one run
  bool trace = false;     // per-layer run (spans on) instead of end-to-end
  bool smoke = false;     // tiny sizes: the unit-test smoke run
  std::string out_dir = ".bench_build/perfbench-out";
  std::string git_sha = "unknown";
  std::string build_info;  // path of the build's build_info.txt

  // quote_stream offered rates (req/s), fixed on the command line rather
  // than calibrated per run.
  double light_rps = 20000.0;
  double heavy_rps = 0.0;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}
inline double now_s() { return 1e-9 * static_cast<double>(now_ns()); }

// A metric a workload reports: value in `unit`.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  Ledger ledger;
  std::vector<std::string> wrong;  // why `correct` is false (oracle misses, invalid run)
  std::map<std::string, Metric> metrics;
  // Run fingerprint entries the workload adds (participants, book bytes,
  // tune winners, percentile labels...), rendered as JSON strings/numbers.
  std::map<std::string, std::string> info;
  std::map<std::string, double> info_num;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  bool correct() const { return wrong.empty(); }
};

// Steal time: CPU time the hypervisor took from this guest's CPUs, read
// from /proc/stat every 20 ms on a thread of its own. The benchmark
// measures the program, not the host it shares: windows and calls during
// which more than kMaxStealFrac of all CPUs' time was stolen are set
// aside, and the share set aside is reported. Without /proc/stat every
// interval counts as clean.
class StealMonitor {
 public:
  static constexpr double kMaxStealFrac = 0.02;

  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  // Stolen share of all CPUs' time over [a_ns, b_ns] (steady clock).
  double frac(std::uint64_t a_ns, std::uint64_t b_ns) const;

 private:
  void run();

  int ncpu_ = 0;
  double jiffy_s_ = 0.01;
  mutable std::mutex mu_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples_;  // (ns, stolen jiffies)
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it uses
};

// The process-wide monitor, started on first use.
StealMonitor& steal_monitor();

// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// Host context for the fingerprint: CPU model, caches, STREAM.
struct HostInfo {
  std::string cpu;
  std::size_t l2_bytes = 0, l3_bytes = 0;
  int nproc = 1;
  double stream_gbps = 0.0;
};
HostInfo host_info();

// Cold tune::resolve of `req` under auto `family` on `eng`: returns the
// seconds it took and records the key's winner as r.info["tune.<label>"].
double resolve_cold(const finbench::engine::Engine& eng,
                    const finbench::engine::PricingRequest& req, const char* family,
                    const std::string& label, RunResult& r);

// Median wall seconds of one warm tune::resolve of `req` (a PlanCache hit).
double resolve_hit_seconds(const finbench::engine::Engine& eng,
                           const finbench::engine::PricingRequest& req, const char* family,
                           int reps);

// Workload entry points.
RunResult run_quote_stream(const Options& o, Tracer& tr);
RunResult run_bs_book(const Options& o, Tracer& tr);
RunResult run_exotic_book(const Options& o, Tracer& tr);

// The serve and resilience layers, measured for a traced run of another
// workload: a short traced quote_stream whose serve.*, resilience.*,
// engine.small_call_us and bench.gen_lag_us.p99 metrics land in `out`.
void probe_serve_layers(const Options& o, RunResult& out, Tracer& tr);

}  // namespace perfbench
