// Telemetry adapter for the google-benchmark micro binaries. They keep
// google-benchmark's own CLI (--benchmark_filter=..., --benchmark_format=...)
// but additionally honor the finbench-wide flags:
//
//   --trace PATH   Chrome trace_event JSON of per-thread spans
//   --json PATH    structured run report (finbench.run_report/v2)
//
// FINBENCH_MICRO_MAIN() replaces BENCHMARK_MAIN(): it strips the two
// finbench flags before benchmark::Initialize (which rejects unknown
// arguments), arms the requested telemetry, runs the benchmarks, then
// writes the exports.

#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include <benchmark/benchmark.h>

#include "finbench/arch/parallel.hpp"
#include "finbench/harness/report.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/perf_counters.hpp"
#include "finbench/obs/run_report.hpp"
#include "finbench/obs/trace.hpp"
#include "finbench/robust/denormal.hpp"

namespace finbench::bench {

struct MicroObs {
  std::string trace;
  std::string json;
  std::string binary;
};

// Removes --trace PATH / --json PATH from argv in place and arms the
// telemetry they request. Must run before benchmark::Initialize and before
// the engine pool starts (perf counters rely on inherit at pool creation).
inline MicroObs micro_obs_init(int& argc, char** argv) {
  MicroObs o;
  if (argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    o.binary = slash ? slash + 1 : argv[0];
  }
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) o.trace = argv[++i];
    else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) o.json = argv[++i];
    else argv[kept++] = argv[i];
  }
  argc = kept;
  if (!o.trace.empty()) obs::trace::enable();
  if (!o.trace.empty() || !o.json.empty()) {
    obs::enable_parallel_timing();
    obs::perf_init();
  }
  return o;
}

inline void micro_obs_finish(const MicroObs& o) {
  if (!o.json.empty()) {
    // Throughput lives in google-benchmark's own output; the run report
    // carries the finbench side — metrics, perf regions, host topology.
    harness::Report report(o.binary + " (google-benchmark micro)", "see benchmark output");
    obs::RunContext ctx;
    ctx.binary = o.binary;
    ctx.threads = arch::num_threads();
    ctx.denormal_mode = std::string(robust::denormal_mode_string());
    if (!obs::write_run_report(o.json, report, ctx)) {
      std::fprintf(stderr, "warning: could not write run report to %s\n", o.json.c_str());
    }
  }
  if (!o.trace.empty() && !obs::trace::write_chrome_trace(o.trace, o.binary)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n", o.trace.c_str());
  }
}

}  // namespace finbench::bench

#define FINBENCH_MICRO_MAIN()                                                \
  int main(int argc, char** argv) {                                          \
    const auto finbench_obs = ::finbench::bench::micro_obs_init(argc, argv); \
    ::benchmark::Initialize(&argc, argv);                                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    ::benchmark::Shutdown();                                                 \
    ::finbench::bench::micro_obs_finish(finbench_obs);                       \
    return 0;                                                                \
  }
