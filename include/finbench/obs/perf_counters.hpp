// finbench/obs/perf_counters.hpp
//
// Hardware performance counters via perf_event_open(2): cycles,
// instructions, L1D loads/misses, and LLC references/misses, reported per
// measured region as IPC and miss rates.
//
// Containers and locked-down kernels routinely refuse the syscall
// (perf_event_paranoid, seccomp, missing CAP_PERFMON), so everything here
// degrades to a graceful no-op: perf_available() turns false,
// perf_unavailable_reason() says why, samples come back with valid=false,
// and the run report records {"available": false}.
//
// Events are opened once per process with inherit=1 *before* the engine
// worker pool exists (bench::Options::parse calls perf_init()), so worker
// threads created afterwards are aggregated into the same counts. Counts
// are read as deltas around a region — the events free-run — and scaled by
// time_enabled/time_running to undo kernel multiplexing.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace finbench::obs {

struct PerfSample {
  bool valid = false;
  double cycles = 0.0;
  double instructions = 0.0;
  double l1d_loads = 0.0;
  double l1d_misses = 0.0;
  double llc_refs = 0.0;
  double llc_misses = 0.0;

  double ipc() const { return cycles > 0.0 ? instructions / cycles : 0.0; }
  double l1d_miss_rate() const { return l1d_loads > 0.0 ? l1d_misses / l1d_loads : 0.0; }
  double llc_miss_rate() const { return llc_refs > 0.0 ? llc_misses / llc_refs : 0.0; }

  PerfSample operator-(const PerfSample& rhs) const;
  PerfSample& operator+=(const PerfSample& rhs);
};

// Open the counters (idempotent). Call early — before the first parallel
// region — so inherited per-thread counts cover the engine pool. Returns
// whether at least cycles+instructions opened.
bool perf_init();

bool perf_available();
// Empty string when available; otherwise e.g. "perf_event_open: Permission
// denied (kernel.perf_event_paranoid?)".
std::string perf_unavailable_reason();

// Instantaneous cumulative counts (multiplex-scaled). valid=false when the
// counters are unavailable.
PerfSample perf_read();

// RAII region sampler: reads at construction and destruction, accumulates
// the delta under `label` in the process-wide region table. No-op when the
// counters are unavailable.
class PerfRegion {
 public:
  explicit PerfRegion(std::string label);
  ~PerfRegion();
  PerfRegion(const PerfRegion&) = delete;
  PerfRegion& operator=(const PerfRegion&) = delete;

 private:
  std::string label_;
  PerfSample begin_;
};

struct PerfRegionRecord {
  std::string label;
  PerfSample sample;  // accumulated over every PerfRegion with this label
};

// Snapshot of the accumulated per-region samples, in first-seen order.
std::vector<PerfRegionRecord> perf_region_snapshot();
void reset_perf_regions();

}  // namespace finbench::obs
