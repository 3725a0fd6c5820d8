// Shared plumbing for the exhibit-reproduction benchmark binaries.
//
// Every binary accepts:
//   --quick        smaller problem sizes (CI-friendly; default)
//   --full         paper-scale problem sizes
//   --reps N       repetitions per measurement (default 3, best-of)
//   --threads N    engine pool threads (default: OMP_NUM_THREADS or all CPUs)
//   --csv PATH     append rows to a CSV file
//   --trace PATH   write a Chrome trace_event JSON of per-thread spans
//   --json PATH    write the structured run report (finbench.run_report/v2)
//
// and prints a Report (see finbench/harness/report.hpp): measured host
// throughput per optimization level and width, SNB-EP/KNC projections via
// the measured-efficiency x Table-I roofline substitution, the paper's
// numbers where the text states them, and PASS/FAIL shape checks.
// See docs/observability.md for the telemetry outputs.

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "finbench/arch/machine_model.hpp"
#include "finbench/arch/parallel.hpp"
#include "finbench/arch/timing.hpp"
#include "finbench/core/scratch_pool.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/thread_pool.hpp"
#include "finbench/harness/report.hpp"
#include "finbench/obs/histogram.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/perf_counters.hpp"
#include "finbench/obs/run_report.hpp"
#include "finbench/obs/trace.hpp"
#include "finbench/robust/denormal.hpp"

namespace finbench::bench {

struct Options {
  bool full = false;
  int reps = 3;
  int threads = 0;  // 0 = leave the default thread count alone
  std::string csv;
  std::string trace;
  std::string json;
  std::string binary;  // argv[0] basename, recorded in the run report

  // Run-report layout provenance: binaries that negotiate or convert
  // portfolio layouts record what they settled on here; the defaults mean
  // "each measurement ran in its variant's native layout, nothing was
  // converted".
  std::string layout = "native";
  double convert_seconds = 0.0;

  // Values a flag that parse() knows takes (0 or 1), or -1 for a flag it
  // does not know. A binary with flags of its own (pricectl) uses it to
  // tell these shared flags from unknown ones.
  static int flag_values(const char* flag) {
    for (const char* f : {"--full", "--quick"}) {
      if (!std::strcmp(flag, f)) return 0;
    }
    for (const char* f : {"--reps", "--threads", "--csv", "--trace", "--json"}) {
      if (!std::strcmp(flag, f)) return 1;
    }
    return -1;
  }

  static Options parse(int argc, char** argv) {
    Options o;
    if (argc > 0) {
      const char* slash = std::strrchr(argv[0], '/');
      o.binary = slash ? slash + 1 : argv[0];
    }
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--full")) o.full = true;
      else if (!std::strcmp(argv[i], "--quick")) o.full = false;
      else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) o.reps = std::atoi(argv[++i]);
      else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
        o.threads = std::atoi(argv[++i]);
      else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc) o.csv = argv[++i];
      else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) o.trace = argv[++i];
      else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) o.json = argv[++i];
      else if (!std::strcmp(argv[i], "--help")) {
        std::printf(
            "usage: %s [--quick|--full] [--reps N] [--threads N] [--csv PATH]\n"
            "          [--trace PATH] [--json PATH]\n",
            argv[0]);
        std::exit(0);
      }
    }
    // Before anything builds the shared engine pool, which is sized once
    // from arch::num_threads().
    arch::set_num_threads(o.threads);
    if (!o.trace.empty()) obs::trace::enable();
    if (!o.trace.empty() || !o.json.empty()) {
      obs::enable_parallel_timing();
      // Open the counters before the engine pool exists so inherited
      // per-thread counts cover the workers (no-op where the syscall is
      // forbidden — containers, hardened kernels).
      obs::perf_init();
    }
    return o;
  }
};

// Measure items/second: best-of-reps wall time of fn() processing `items`.
// `label` names the measurement in the trace (one span per repetition),
// the perf-counter region table, and the run report's `measurements`
// array; repetition mean/stddev ride along so finish() can flag noisy
// runs.
template <class F>
double items_per_sec(const char* label, std::size_t items, int reps, F&& fn) {
  fn();  // warm-up (page-in, code, caches)
  // Per-repetition wall times land in a per-row latency histogram, so
  // every measurement gets a tail-latency view (p50/p99 in the run
  // report's `histograms` and the OpenMetrics scrape) alongside the
  // best-of throughput. Resolved once per measurement; the per-rep cost
  // is two clock reads and a relaxed-atomic record.
  obs::Histogram& rep_hist =
      obs::histogram("bench.rep.seconds", std::string("label=\"") + label + "\"");
  const arch::RepStats st = [&] {
    obs::PerfRegion perf(label);
    return arch::measure(reps, [&] {
      FINBENCH_SPAN(label);
      arch::WallTimer rep_timer;
      fn();
      rep_hist.record_seconds(rep_timer.seconds());
    });
  }();
  obs::record_measurement({label, items, st.reps, st.best, st.mean, st.stddev});
  return static_cast<double>(items) / st.best;
}

template <class F>
double items_per_sec(std::size_t items, int reps, F&& fn) {
  return items_per_sec("measure", items, reps, static_cast<F&&>(fn));
}

// Registry-driven dispatch for the exhibit binaries: a thunk that runs the
// registered variant req.kernel_id's batch entry point over req's own
// portfolio (resolved by id; an unknown id aborts). `req` must outlive it.
inline auto variant_batch(const engine::PricingRequest& req) {
  const engine::VariantInfo* v = engine::Registry::instance().find(req.kernel_id);
  if (!v) {
    std::fprintf(stderr, "unknown registry variant '%s'\n", req.kernel_id.c_str());
    std::abort();
  }
  return [v, &req, res = engine::PricingResult{}]() mutable {
    v->run_batch(req, req.portfolio, res);
  };
}

// variant_batch(req) under the items_per_sec timing protocol. The
// request's scratch cache is built during the warm-up call, so stream-RNG
// inputs stay outside the timed region.
inline double measure_variant(const char* label, const engine::PricingRequest& req,
                              std::size_t items, int reps) {
  return items_per_sec(label, items, reps, variant_batch(req));
}

// Run fn(begin, end) over [0, n) in ranges whose size is a multiple of
// `align`, on the shared engine pool — how an exhibit threads a kernel
// call no registry variant covers (a tile-depth sweep, a variant's 4-wide
// build, a hand-rolled cache-blocked loop). The kernels are serial loops;
// the pool is the one thread runtime.
template <class F>
void on_pool(std::size_t n, std::size_t align, F&& fn) {
  if (n == 0) return;
  engine::ThreadPool& pool = engine::ThreadPool::shared();
  const std::size_t parts = static_cast<std::size_t>(pool.size()) * 8;
  std::size_t per = (n + parts - 1) / parts;
  per = (per + align - 1) / align * align;
  const std::function<void(std::ptrdiff_t)> range = [&](std::ptrdiff_t c) {
    const std::size_t begin = static_cast<std::size_t>(c) * per;
    fn(begin, std::min(n, begin + per));
  };
  if (per >= n) {
    engine::ThreadPool::run_inline(1, range);  // one range: no worker to wake
  } else {
    pool.run(static_cast<std::ptrdiff_t>((n + per - 1) / per), range);
  }
}

// A kernel scratch pool for direct kernel calls spread by on_pool (the
// binomial lattices, the VML temporaries, the CN pack workspace), carved
// outside the timed region and sized as the registry adapters' prepare
// hooks size theirs: two slots per pool participant. A row's repetitions
// then lease their temporaries instead of allocating them.
struct PoolScratch {
  core::Arena arena;
  core::ScratchPool pool;
  explicit PoolScratch(std::size_t slot_doubles) {
    pool.reserve(arena, slot_doubles, 2 * engine::ThreadPool::shared().size());
  }
};

// The DESIGN.md §1 projection: scale the host-measured throughput of a
// W-wide code path to a modeled machine via the ratio of rooflines.
//
//   efficiency = host_measured / host_roofline(width-adjusted)
//   projected  = efficiency x model_roofline
//
// The host roofline is adjusted to the SIMD width actually exercised so a
// 4-wide measurement projects SNB-EP and an 8-wide measurement projects
// KNC on like-for-like terms.
// Thin adapter over the tested harness::Projector (see
// tests/test_harness.cpp for the projection semantics).
struct Projector {
  arch::MachineModel host = arch::host();
  arch::MachineModel snb = arch::snb_ep();
  arch::MachineModel knc = arch::knc();

  double host_roofline(double flops_per_item, double bytes_per_item, int width) const {
    return harness::Projector::width_adjusted_roofline(host, flops_per_item, bytes_per_item,
                                                       width);
  }

  double project(const arch::MachineModel& target, double host_measured, double flops_per_item,
                 double bytes_per_item, int width) const {
    return harness::Projector(host, target)
        .project(host_measured, flops_per_item, bytes_per_item, width);
  }

  harness::Row make_row(const std::string& label, double host_measured, double flops,
                        double bytes, int snb_width, int knc_width,
                        std::optional<double> paper_snb = std::nullopt,
                        std::optional<double> paper_knc = std::nullopt,
                        std::optional<double> host_8wide = std::nullopt) const {
    harness::Row r;
    r.label = label;
    r.host_items_per_sec = host_measured;
    r.snb_projected = project(snb, host_measured, flops, bytes, snb_width);
    const double knc_basis = host_8wide.value_or(host_measured);
    r.knc_projected = project(knc, knc_basis, flops, bytes, knc_width);
    r.paper_snb = paper_snb;
    r.paper_knc = paper_knc;
    r.width = snb_width;
    r.flops_per_item = flops;
    r.bytes_per_item = bytes;
    r.host_efficiency =
        harness::Projector(host, host).efficiency(host_measured, flops, bytes, snb_width);
    return r;
  }
};

// Telemetry epilogue shared by finish()/finish_quiet(): effective thread
// count into the report and JSON, noisy-measurement notes, then the
// requested exports. An export that cannot be written exits 1 naming its
// path, once every export has been tried.
inline void finish_exports(harness::Report& report, const Options& opts, bool print_table) {
  const int threads = engine::ThreadPool::shared().size();
  report.add_note("threads = " + std::to_string(threads) +
                  (opts.threads > 0 ? " (set via --threads)" : " (OMP_NUM_THREADS or all CPUs)"));
  for (const auto& m : obs::measurement_snapshot()) {
    if (m.noisy()) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "noisy measurement '%s': stddev/mean = %.0f%% over %d reps "
                    "(best-of still reported)",
                    m.label.c_str(), 100.0 * m.rel_stddev(), m.reps);
      report.add_note(buf);
    }
  }
  const int failed = print_table ? report.print() : report.failed_checks();
  bool written = true;
  const auto check = [&written](bool ok, const char* what, const std::string& path) {
    if (!ok) std::fprintf(stderr, "error: could not write %s to %s\n", what, path.c_str());
    written = written && ok;
  };
  if (!opts.csv.empty()) check(report.write_csv(opts.csv), "CSV rows", opts.csv);
  if (!opts.json.empty()) {
    obs::RunContext ctx;
    ctx.binary = opts.binary;
    ctx.full = opts.full;
    ctx.reps = opts.reps;
    ctx.threads = threads;
    ctx.layout = opts.layout;
    ctx.convert_seconds = opts.convert_seconds;
    ctx.denormal_mode = std::string(robust::denormal_mode_string());
    check(obs::write_run_report(opts.json, report, ctx), "run report", opts.json);
  }
  if (!opts.trace.empty()) check(obs::trace::write_chrome_trace(opts.trace), "trace", opts.trace);
  // Shape-check failures are reported but do not fail the binary: on a
  // 1-core container the absolute numbers are far from a 2012 dual-socket
  // server, and the checks are advisory diagnostics.
  (void)failed;
  if (!written) std::exit(1);
}

inline void finish(harness::Report& report, const Options& opts) {
  finish_exports(report, opts, /*print_table=*/true);
}

// For binaries with bespoke stdout (tab1_sysconfig, ninja_gap_summary):
// all the exports, none of the table printing.
inline void finish_quiet(harness::Report& report, const Options& opts) {
  finish_exports(report, opts, /*print_table=*/false);
}

}  // namespace finbench::bench
