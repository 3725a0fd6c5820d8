// perfbench/src/main.cpp — command line and output of the benchmark.
//
//   finbench_perf --workload <quote_stream|bs_book|exotic_book> --seed N
//                 --seconds S --trace <0|1> [--smoke] [--out-dir DIR]
//                 [--git-sha SHA] [--build-info FILE]
//                 [--light-rps R] [--heavy-rps R]
//
// Prints the run fingerprint as one JSON line, then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics (and writes the
// run's spans to DIR/spans-<workload>.json). The full result, fingerprint
// included, is also written to DIR/<workload>-trace<0|1>.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "finbench/obs/json.hpp"

namespace perfbench {
namespace {

namespace obs = finbench::obs;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (untraced run).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},     {"ok_frac", "1"}, {"peak_rss_mb", "MB"},
    {"opts_per_s", "1/s"}, {"p50_ms", "ms"}, {"tail_ms", "ms"},
};

// The per-layer metrics every workload reports (traced run). A layer the
// workload does not exercise reports 0.
const std::vector<MetricDef> kPerLayer = {
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.batch_members.mean", "count"},
    {"serve.fused_frac", "1"},
    {"serve.service_us.p50", "us"},
    {"serve.shed", "count"},
    {"resilience.retries", "count"},
    {"resilience.brownout_level_max", "count"},
    {"resilience.breaker_reroutes", "count"},
    {"tune.race_s", "s"},
    {"tune.resolve_hit_us", "us"},
    {"engine.small_call_us", "us"},
    {"engine.unattributed_frac", "1"},
    {"engine.vs_openmp", "1"},
    {"engine.chunks_per_call", "count"},
    {"engine.tasks_spawned_per_call", "count"},
    {"engine.parallel_eff", "1"},
    {"robust.sanitize_ns_per_opt", "ns"},
    {"robust.degraded", "count"},
    {"core.convert_gbps", "GB/s"},
    {"core.writeback_gbps", "GB/s"},
    {"kernels.bs.opts_per_s", "1/s"},
    {"kernels.bs.gflops", "GFLOP/s"},
    {"kernels.bs.gbps", "GB/s"},
    {"kernels.bs.roof_frac", "1"},
    {"kernels.binomial.opts_per_s", "1/s"},
    {"kernels.binomial.gflops", "GFLOP/s"},
    {"kernels.binomial.gbps", "GB/s"},
    {"kernels.binomial.roof_frac", "1"},
    {"kernels.cn.opts_per_s", "1/s"},
    {"kernels.cn.gflops", "GFLOP/s"},
    {"kernels.cn.gbps", "GB/s"},
    {"kernels.cn.roof_frac", "1"},
    {"kernels.mc.opts_per_s", "1/s"},
    {"kernels.mc.gflops", "GFLOP/s"},
    {"kernels.mc.gbps", "GB/s"},
    {"kernels.mc.roof_frac", "1"},
    {"arch.stream_gbps", "GB/s"},
    {"obs.trace_overhead_frac", "1"},
    {"bench.gen_lag_us.p99", "us"},
    {"bench.error_rate", "1"},
    {"trace.self_frac.bench", "1"},
    {"trace.self_frac.serve", "1"},
    {"trace.self_frac.engine", "1"},
    {"trace.self_frac.robust", "1"},
    {"trace.self_frac.core", "1"},
    {"trace.self_frac.kernels", "1"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "finbench_perf: " << why
            << "\nusage: finbench_perf --workload <quote_stream|bs_book|exotic_book> --seed N "
               "--seconds S --trace <0|1> [--smoke] [--out-dir DIR] [--git-sha SHA] "
               "[--build-info FILE] [--light-rps R] [--heavy-rps R]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = next();
      else if (a == "--seed") o.seed = std::stoull(next());
      else if (a == "--seconds") o.seconds = std::stod(next());
      else if (a == "--trace") o.trace = std::stoi(next()) != 0;
      else if (a == "--smoke") o.smoke = true;
      else if (a == "--out-dir") o.out_dir = next();
      else if (a == "--git-sha") o.git_sha = next();
      else if (a == "--build-info") o.build_info = next();
      else if (a == "--light-rps") o.light_rps = std::stod(next());
      else if (a == "--heavy-rps") o.heavy_rps = std::stod(next());
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.heavy_rps <= 0.0) o.heavy_rps = 2.0 * o.light_rps;
  return o;
}

std::string read_build_info(const std::string& path) {
  std::ifstream f(path);
  if (!f) return "unknown";
  std::string line, all;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    all += (all.empty() ? "" : "; ") + line;
  }
  return all;
}

// Self time of each layer from the run's spans, as a share of the time
// the root spans cover.
void self_fracs(const Tracer& tr, RunResult& r) {
  const std::map<std::string, double> self = tr.self_ns_by_name();
  double total = 0.0;
  for (const Span& s : tr.spans()) {
    if (s.parent < 0) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, double> layer;
  for (const auto& [name, ns] : self) layer[name.substr(0, name.find('.'))] += ns;
  for (const char* l : {"bench", "serve", "engine", "robust", "core", "kernels"}) {
    r.set(std::string("trace.self_frac.") + l, total > 0.0 ? layer[l] / total : 0.0, "1");
  }
  for (const auto& [name, ns] : self) r.info_num["trace.self_ms." + name] = 1e-6 * ns;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_fingerprint(obs::json::Writer& w, const Options& o, const HostInfo& h,
                       const RunResult& r) {
  w.begin_object();
  w.kv("workload", o.workload);
  w.kv("seed", static_cast<std::uint64_t>(o.seed));
  w.kv("trace", o.trace);
  w.kv("smoke", o.smoke);
  w.kv("seconds", o.seconds);
  w.kv("git_sha", o.git_sha);
  w.kv("build", read_build_info(o.build_info));
  w.kv("cpu", h.cpu);
  w.kv("nproc", h.nproc);
  w.kv("l2_bytes", static_cast<std::uint64_t>(h.l2_bytes));
  w.kv("l3_bytes", static_cast<std::uint64_t>(h.l3_bytes));
  w.kv("stream_gbps", h.stream_gbps);
  const auto bb = r.info_num.find("book_bytes");
  if (bb != r.info_num.end() && h.l3_bytes > 0) {
    w.kv("book_bytes_over_llc", bb->second / static_cast<double>(h.l3_bytes));
  }
  w.kv("attempted", r.ledger.attempted);
  w.kv("ok", r.ledger.ok);
  w.kv("failed", r.ledger.failed);
  w.kv("shed", r.ledger.shed);
  w.kv("expired", r.ledger.expired);
  w.kv("wrong", r.ledger.wrong);
  w.kv("error_rate", r.ledger.error_rate());
  for (const auto& [k, v] : r.info) w.kv(k, v);
  for (const auto& [k, v] : r.info_num) w.kv(k, v);
  w.key("problems");
  w.begin_array();
  for (const std::string& s : r.wrong) w.value(s);
  w.end_array();
  w.end_object();
}

int run(const Options& o) {
  if (o.workload != "quote_stream" && o.workload != "bs_book" && o.workload != "exotic_book") {
    usage("unknown workload " + o.workload);
  }
  steal_monitor();  // start sampling before any workload thread exists
  const std::uint64_t t0 = now_ns();
  Tracer tr(false);
  RunResult r = o.workload == "quote_stream" ? run_quote_stream(o, tr)
                : o.workload == "bs_book"    ? run_bs_book(o, tr)
                                             : run_exotic_book(o, tr);
  r.info_num["steal_frac"] = steal_monitor().frac(t0, now_ns());
  // Peak memory of the workload, read before the STREAM measurement below
  // allocates its arrays (traced runs have already measured it).
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  const HostInfo host = host_info();
  if (o.trace) {
    r.set("arch.stream_gbps", host.stream_gbps, "GB/s");
    r.set("bench.error_rate", r.ledger.error_rate(), "1");
    self_fracs(tr, r);
  }

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  if (o.trace && !tr.write(o.out_dir + "/spans-" + o.workload + ".json")) {
    std::cerr << "finbench_perf: could not write spans under " << o.out_dir << "\n";
  }

  std::ostringstream fp;
  {
    obs::json::Writer w(fp);
    write_fingerprint(w, o, host, r);
  }

  // The result line: exactly the metrics of this mode, in a fixed order.
  bool correct = r.correct();
  std::string metrics;
  for (const MetricDef& m : o.trace ? kPerLayer : kEndToEnd) {
    double v = 0.0;
    const auto it = r.metrics.find(m.name);
    if (it != r.metrics.end()) {
      v = it->second.value;
      if (it->second.unit != m.unit) {
        throw std::logic_error(std::string("metric ") + m.name + " reported in " +
                               it->second.unit + ", declared in " + m.unit);
      }
    } else if (!o.trace) {
      throw std::logic_error(std::string("workload did not report ") + m.name);
    }
    if (!std::isfinite(v)) {
      std::cerr << "finbench_perf: " << m.name << " is not finite\n";
      correct = false;
      v = 0.0;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
               num(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  const std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(r.ledger.attempted) +
                             ", \"failed\": " + std::to_string(r.ledger.bad()) +
                             ", \"metrics\": {" + metrics + "}}";

  std::ofstream f(o.out_dir + "/" + o.workload + "-trace" + (o.trace ? "1" : "0") + ".json");
  f << "{\"fingerprint\": " << fp.str() << ", \"result\": " << result << "}\n";

  std::cout << "{\"fingerprint\": " << fp.str() << "}\n" << result << std::endl;
  for (const std::string& s : r.wrong) std::cerr << "finbench_perf: " << s << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "finbench_perf: " << e.what() << "\n";
    return 1;
  }
}
