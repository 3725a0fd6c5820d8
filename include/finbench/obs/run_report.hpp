// finbench/obs/run_report.hpp
//
// The structured JSON run report (`--json PATH`): everything a later
// analysis needs to interpret one bench invocation without re-running it —
// the harness::Report rows (with roofline efficiency), host topology and
// machine model, effective thread count, git SHA, raw repetition
// statistics per measurement, the metrics registry, every registered
// latency histogram (count/sum, percentiles, sparse buckets), and
// hardware-counter samples per region. Schema "finbench.run_report/v2";
// documented in docs/observability.md and validated by
// tools/validate_report_json.py.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace finbench::harness {
class Report;
}

namespace finbench::obs {

// One bench measurement (one items_per_sec() call): repetition timing
// statistics under the label the binary gave it.
struct MeasurementRecord {
  std::string label;
  std::size_t items = 0;
  int reps = 0;
  double best_sec = 0.0;
  double mean_sec = 0.0;
  double stddev_sec = 0.0;

  double rel_stddev() const { return mean_sec > 0.0 ? stddev_sec / mean_sec : 0.0; }
  bool noisy() const { return rel_stddev() > 0.10; }
};

void record_measurement(MeasurementRecord rec);
std::vector<MeasurementRecord> measurement_snapshot();
void reset_measurements();

// Invocation context the Report itself does not carry.
struct RunContext {
  std::string binary;  // argv[0] basename
  bool full = false;
  int reps = 0;
  int threads = 0;     // engine pool participants

  // Portfolio-layout provenance: the layout the workload was presented in
  // ("aos", "soa", ... or "native" when every measurement used its
  // variant's native layout) and the one-time layout-conversion cost the
  // engine's negotiation paid, in seconds (0 when nothing was converted).
  std::string layout = "native";
  double convert_seconds = 0.0;

  // Denormal policy the thread pool installs on its participants
  // (robust::denormal_mode_string(): "ftz+daz" or "ieee"). Threaded
  // through the context because obs does not link against robust.
  std::string denormal_mode = "ieee";
};

// Best-effort repository HEAD SHA: walks up from the current directory to
// a .git and resolves HEAD -> ref. Empty string when not in a checkout.
std::string git_sha();

// Write the run report for `report` (plus the global measurement, metrics,
// and perf-region state) to `path`. Returns false if the file cannot be
// written.
bool write_run_report(const std::string& path, const harness::Report& report,
                      const RunContext& ctx);

}  // namespace finbench::obs
