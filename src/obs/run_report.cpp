#include "finbench/obs/run_report.hpp"

#include <cctype>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>

#include "finbench/arch/machine_model.hpp"
#include "finbench/arch/parallel.hpp"
#include "finbench/arch/topology.hpp"
#include "finbench/harness/report.hpp"
#include "finbench/obs/histogram.hpp"
#include "finbench/obs/json.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/perf_counters.hpp"
#include "finbench/obs/trace.hpp"

namespace finbench::obs {

// --- Measurement registry ----------------------------------------------------

namespace {

struct MeasurementTable {
  std::mutex mu;
  std::vector<MeasurementRecord> records;
};

MeasurementTable& measurements() {
  static MeasurementTable* t = new MeasurementTable;
  return *t;
}

}  // namespace

void record_measurement(MeasurementRecord rec) {
  MeasurementTable& t = measurements();
  std::lock_guard<std::mutex> lock(t.mu);
  t.records.push_back(std::move(rec));
}

std::vector<MeasurementRecord> measurement_snapshot() {
  MeasurementTable& t = measurements();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.records;
}

void reset_measurements() {
  MeasurementTable& t = measurements();
  std::lock_guard<std::mutex> lock(t.mu);
  t.records.clear();
}

// --- git SHA -----------------------------------------------------------------

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  if (!f || !std::getline(f, line)) return {};
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r' || line.back() == ' ')) {
    line.pop_back();
  }
  return line;
}

bool looks_like_sha(const std::string& s) {
  if (s.size() < 40) return false;
  for (const char c : s) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

std::string git_sha() {
  // Walk up from the CWD looking for .git (bench binaries run from build/).
  std::string dir = ".";
  for (int depth = 0; depth < 8; ++depth) {
    const std::string git = dir + "/.git";
    std::string head = read_first_line(git + "/HEAD");
    if (!head.empty()) {
      if (head.rfind("ref: ", 0) == 0) {
        const std::string ref = head.substr(5);
        std::string sha = read_first_line(git + "/" + ref);
        if (looks_like_sha(sha)) return sha.substr(0, 40);
        // Packed refs: scan for "<sha> <ref>".
        std::ifstream packed(git + "/packed-refs");
        std::string line;
        while (packed && std::getline(packed, line)) {
          if (line.size() > 41 && line[0] != '#' && line[0] != '^' &&
              line.compare(41, std::string::npos, ref) == 0 &&
              looks_like_sha(line.substr(0, 40))) {
            return line.substr(0, 40);
          }
        }
        return {};
      }
      if (looks_like_sha(head)) return head.substr(0, 40);  // detached HEAD
    }
    dir += "/..";
  }
  return {};
}

// --- Report writer -----------------------------------------------------------

namespace {

void write_host(json::Writer& w) {
  const arch::CpuFeatures feat = arch::detect_cpu_features();
  const arch::CacheInfo caches = arch::detect_caches();
  w.begin_object();
  w.kv("brand", feat.brand);
  w.kv("logical_cpus", arch::logical_cpus());
  w.kv("ghz", arch::cpu_ghz());
  w.kv("avx2", feat.avx2);
  w.kv("fma", feat.fma);
  w.kv("avx512f", feat.avx512f);
  w.kv("avx512dq", feat.avx512dq);
  w.key("cache_bytes");
  w.begin_object();
  w.kv("l1d", static_cast<std::uint64_t>(caches.l1d));
  w.kv("l2", static_cast<std::uint64_t>(caches.l2));
  w.kv("l3", static_cast<std::uint64_t>(caches.l3));
  w.end_object();
  const arch::MachineModel host = arch::host();
  w.kv("dp_gflops_peak", host.dp_gflops);
  w.kv("stream_gbs", host.bw_gbs);
  w.kv("simd_dp_lanes", host.simd_dp);
  w.end_object();
}

void write_rows(json::Writer& w, const harness::Report& report) {
  w.begin_array();
  for (const auto& r : report.rows()) {
    w.begin_object();
    w.kv("label", r.label);
    w.kv("host_items_per_sec", r.host_items_per_sec);
    w.kv("snb_projected", r.snb_projected);
    w.kv("knc_projected", r.knc_projected);
    if (r.paper_snb) w.kv("paper_snb", *r.paper_snb);
    else w.kv_null("paper_snb");
    if (r.paper_knc) w.kv("paper_knc", *r.paper_knc);
    else w.kv_null("paper_knc");
    w.kv("width", r.width);
    w.kv("flops_per_item", r.flops_per_item);
    w.kv("bytes_per_item", r.bytes_per_item);
    w.kv("roofline_efficiency", r.host_efficiency);
    w.end_object();
  }
  w.end_array();
}

void write_checks(json::Writer& w, const harness::Report& report) {
  w.begin_array();
  for (const auto& c : report.checks()) {
    w.begin_object();
    w.kv("name", c.name);
    w.kv("passed", c.passed);
    w.kv("detail", c.detail);
    w.end_object();
  }
  w.end_array();
}

void write_measurements(json::Writer& w) {
  w.begin_array();
  for (const auto& m : measurement_snapshot()) {
    w.begin_object();
    w.kv("label", m.label);
    w.kv("items", static_cast<std::uint64_t>(m.items));
    w.kv("reps", m.reps);
    w.kv("best_sec", m.best_sec);
    w.kv("mean_sec", m.mean_sec);
    w.kv("stddev_sec", m.stddev_sec);
    w.kv("rel_stddev", m.rel_stddev());
    w.kv("noisy", m.noisy());
    w.end_object();
  }
  w.end_array();
}

void write_metrics(json::Writer& w) {
  const MetricsSnapshot snap = snapshot_metrics();
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : snap.counters) w.kv(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : snap.gauges) w.kv(name, v);
  w.end_object();
  w.key("stats");
  w.begin_object();
  for (const auto& [name, s] : snap.stats) {
    w.key(name);
    w.begin_object();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.kv("mean", s.mean);
    w.kv("stddev", s.stddev);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

// Every registered latency histogram, keyed by its registry key
// (name or name{labels}): exact count/sum plus the bucketed percentiles.
// Buckets themselves are exported sparsely (index -> count) so a report
// stays compact even though each histogram spans ~620 buckets.
void write_histograms(json::Writer& w) {
  w.begin_object();
  for (const auto& h : snapshot_histograms()) {
    w.key(h.key());
    w.begin_object();
    w.kv("name", h.name);
    w.kv("labels", h.labels);
    w.kv("count", h.snap.count);
    w.kv("sum_sec", h.snap.sum_seconds());
    w.kv("mean_sec", h.snap.mean_seconds());
    w.kv("min_sec", 1e-9 * static_cast<double>(h.snap.min_ns));
    w.kv("max_sec", 1e-9 * static_cast<double>(h.snap.max_ns));
    w.kv("p50", h.snap.p50());
    w.kv("p90", h.snap.p90());
    w.kv("p99", h.snap.p99());
    w.kv("p999", h.snap.p999());
    w.key("buckets");
    w.begin_object();
    for (std::size_t b = 0; b < h.snap.buckets.size(); ++b) {
      if (h.snap.buckets[b] == 0) continue;
      w.key(std::to_string(b));
      w.begin_object();
      w.kv("le_sec", 1e-9 * static_cast<double>(
                                Histogram::bucket_upper_ns(static_cast<int>(b))));
      w.kv("count", h.snap.buckets[b]);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
}

// The robustness story of the run: the denormal policy the pool executed
// under, plus every robust.* counter the sanitizer / guards / fallback /
// deadline / fault-injection machinery bumped. The keys are fixed — a
// clean run reports explicit zeros, so report consumers can diff runs
// without probing for key presence (tools/validate.py report requires
// the object).
void write_robust(json::Writer& w, const std::string& denormal_mode) {
  static constexpr const char* kCounters[] = {
      "robust.sanitize.scanned",  "robust.sanitize.faulty",
      "robust.sanitize.clamped",  "robust.sanitize.skipped",
      "robust.guard.violations",  "robust.guard.repaired",
      "robust.inject.poisoned",   "robust.inject.corrupted",
      "robust.inject.thrown",     "robust.inject.slow",
      "robust.fallback.chunks",   "robust.fallback.exhausted",
      "robust.deadline.expired",  "robust.deadline.chunks_skipped",
      "robust.admission.shed",    "robust.admission.shed_queue_full",
      "robust.admission.shed_bytes", "pool.exceptions.suppressed",
  };
  const MetricsSnapshot snap = snapshot_metrics();
  const auto counter_of = [&snap](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  w.begin_object();
  w.kv("denormal_mode", denormal_mode);
  w.key("counters");
  w.begin_object();
  for (const char* name : kCounters) w.kv(name, counter_of(name));
  w.end_object();
  w.end_object();
}

// The fork-join story of the run: every engine.tasks.* counter the nested
// task layer bumped. Fixed keys with explicit zeros, like write_robust, so
// a flat-chunked run still reports the object and consumers can diff task
// activity across runs without probing for key presence.
void write_tasks(json::Writer& w) {
  static constexpr const char* kCounters[] = {
      "engine.tasks.spawned",
      "engine.tasks.steals",
      "engine.tasks.depth",
  };
  const MetricsSnapshot snap = snapshot_metrics();
  const auto counter_of = [&snap](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const char* name : kCounters) w.kv(name, counter_of(name));
  w.end_object();
  w.end_object();
}

void write_perf(json::Writer& w) {
  w.begin_object();
  const bool avail = perf_available();
  w.kv("available", avail);
  if (!avail) w.kv("reason", perf_unavailable_reason());
  w.key("regions");
  w.begin_array();
  for (const auto& rec : perf_region_snapshot()) {
    w.begin_object();
    w.kv("label", rec.label);
    w.kv("cycles", rec.sample.cycles);
    w.kv("instructions", rec.sample.instructions);
    w.kv("ipc", rec.sample.ipc());
    w.kv("l1d_loads", rec.sample.l1d_loads);
    w.kv("l1d_misses", rec.sample.l1d_misses);
    w.kv("l1d_miss_rate", rec.sample.l1d_miss_rate());
    w.kv("llc_refs", rec.sample.llc_refs);
    w.kv("llc_misses", rec.sample.llc_misses);
    w.kv("llc_miss_rate", rec.sample.llc_miss_rate());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

bool write_run_report(const std::string& path, const harness::Report& report,
                      const RunContext& ctx) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;

  json::Writer w(f);
  w.begin_object();
  w.kv("schema", "finbench.run_report/v2");
  w.kv("exhibit", report.exhibit());
  w.kv("units", report.units());
  w.kv("binary", ctx.binary);
  w.kv("git_sha", git_sha());
  w.kv("full", ctx.full);
  w.kv("reps", ctx.reps);
  w.kv("threads", ctx.threads > 0 ? ctx.threads : arch::num_threads());
  w.kv("layout", ctx.layout);
  w.kv("convert_seconds", ctx.convert_seconds);

  w.key("host");
  write_host(w);

  w.key("notes");
  w.begin_array();
  for (const auto& n : report.notes()) w.value(n);
  w.end_array();

  w.key("rows");
  write_rows(w, report);

  w.key("checks");
  write_checks(w, report);

  w.key("measurements");
  write_measurements(w);

  w.key("metrics");
  write_metrics(w);

  w.key("histograms");
  write_histograms(w);

  w.key("robust");
  write_robust(w, ctx.denormal_mode);

  w.key("tasks");
  write_tasks(w);

  w.key("perf");
  write_perf(w);

  w.key("trace");
  w.begin_object();
  w.kv("enabled", trace::enabled());
  w.kv("recorded_spans", static_cast<std::uint64_t>(trace::recorded_spans()));
  w.kv("dropped_spans", static_cast<std::uint64_t>(trace::dropped_spans()));
  w.end_object();

  w.end_object();
  f << '\n';
  return static_cast<bool>(f);
}

}  // namespace finbench::obs
