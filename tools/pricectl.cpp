// pricectl — the single CLI entry point to the finbench kernel registry
// and pricing engine.
//
//   pricectl --list                      enumerate every registered variant
//   pricectl --validate [--nopt N]       self-validate variants vs references
//   pricectl --kernel ID --nopt N        price a workload through variant ID
//            [--auto] [--tune] [--explain] [--tune-cache PATH]
//            [--layout aos|soa|blocked|auto] [--chunks N] [--tasks on|off|auto]
//            [--steps N] [--npath N] [--prices N] [--depth N]
//            [--seed N] [--spy N] [--reps N] [--threads N] [--json PATH]
//            [--csv PATH] [--trace PATH] [--sanitize off|reject|clamp|skip]
//            [--guard off|finite|full] [--deadline-ms N] [--inject SPEC]
//            [--metrics PATH|-] [--watch MS] [--flight-dump PATH]
//            [--serve N] [--no-coalesce] [--chaos SPEC] [--breaker on|off]
//            [--retry N] [--brownout on|off]
//   pricectl --help                      print the usage
//
// An unknown flag (or a flag missing its value) is a usage error: exit 2,
// naming the flag. An output that was asked for (--json, --csv, --trace,
// --metrics, --flight-dump) and cannot be written exits 1, naming the path.
//
// Auto dispatch (docs/autotuning.md): --kernel also accepts an *intent* id
// "<family>.auto" (bs/blackscholes, binomial, mc/montecarlo, brownian,
// cn/cranknicolson) — the engine races the family's candidate variants,
// chunk granularities and task modes once per workload shape and
// dispatches the winner; --auto turns a bare family name into that intent
// ("--auto --kernel bs" == "--kernel bs.auto"). --tune-cache PATH persists
// the raced plans (schema finbench.tune_cache/v2, fingerprinted by host
// CPU) so later runs resolve without racing; --tune forces a re-race of
// this workload's key; --explain prints the cached race evidence — every
// candidate's measured rate and imbalance — after the run. The plan
// decides chunks_per_thread and the task mode of an auto id, so --chunks
// and --tasks are usage errors there; with a concrete id they are run
// verbatim.
//
// --kernel runs kSpecs workloads through the batched engine (persistent
// thread pool, cost-model-weighted chunks claimed by ticket) and
// batch-layout workloads through the kernel's native entry point.
// --layout forces the Black–Scholes request layout: `auto` (default)
// builds the variant's native layout, `aos`/`soa`/`blocked` build that
// layout regardless and let the engine negotiate — the per-call
// conversion cost is printed and lands in the run report's
// `layout`/`convert_seconds` fields. --spy N prices a mixed-expiry lattice
// portfolio at N steps/year of expiry — the heterogeneous workload whose
// imbalance chunk self-scheduling exists to absorb. The run report (--json)
// follows finbench.run_report/v2, identical to the fig/tab binaries.
//
// Robustness controls (docs/robustness.md): --sanitize picks the input
// policy, --guard the output guardrail mode, --deadline-ms arms a
// cooperative per-request deadline. --inject takes a robust::FaultPlan
// spec ("seed=7,poison=0.01,corrupt=0.002,throw=0.1,slow=0.05,slow_ms=30");
// input poisoning is applied to the workload pricectl builds, the other
// fault classes run inside the engine. A degraded-but-complete run (one
// that survived injection through sanitize/guard/fallback) exits 0 and
// reports the degradation in the `robust` notes and obs counters.
//
// Observability (docs/observability.md): --metrics scrapes the whole
// metrics + histogram registry as OpenMetrics text after the run ("-"
// streams to stdout and suppresses the report table, so stdout is a pure
// exposition); --watch MS prints a live latency view (request counts,
// per-kernel p50/p90/p99) to stderr every MS milliseconds while the run
// is in flight; --flight-dump writes the per-chunk flight recorder as
// JSON after the run, and also redirects the engine's automatic
// post-mortem dump (deadline / kernel error / quarantine) to that path.
//
// Resilience controls (docs/resilience.md): --chaos "variant=<id>,<spec>"
// binds a robust::FaultPlan to a *variant* (every request routed to it is
// hit — the poison that trips circuit breakers, unlike --inject's
// request-scoped plan which deliberately does not); --breaker off disables
// the per-variant circuit breakers (the chaos control arm); --retry N sets
// the request's serve-layer retry budget to N total attempts; --brownout
// off disables the serve dispatcher's overload-degradation ladder, and
// --brownout on additionally declares this workload degradable to 1/4 of
// its accuracy knobs so the ladder has something to act on. --watch prints
// any non-closed breaker states alongside the latency view.
//
// Request-stream mode (docs/serve.md): --serve N prices the workload as N
// concurrent sub-requests streamed through a serve::Server instead of one
// whole-batch Engine::price call. Each sub-request draws its own options
// (seed + index) over the same batch scalars, so the coalescer can legally
// fuse them back into large batches; --no-coalesce prices every
// sub-request individually for comparison. The serve.* histograms
// (request / queue latency, batch size) land in --watch, --metrics, and
// the run report like every engine series.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "finbench/obs/flight_recorder.hpp"
#include "finbench/obs/openmetrics.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/validate.hpp"
#include "finbench/resilience/breaker.hpp"
#include "finbench/resilience/chaos.hpp"
#include "finbench/robust/robust.hpp"
#include "finbench/serve/server.hpp"
#include "finbench/tune/tuner.hpp"
#include "finbench/vecmath/array_math.hpp"

using namespace finbench;

namespace {

int run_list() {
  const auto all = engine::Registry::instance().all();
  std::printf("%-32s %-13s %-6s %-9s %-9s %s\n", "id", "level", "width", "layout", "exhibit",
              "description");
  for (const engine::VariantInfo* v : all) {
    std::printf("%-32s %-13s %-6d %-9s %-9s %s\n", v->id.c_str(),
                std::string(core::to_string(v->level)).c_str(), v->width,
                std::string(engine::to_string(v->layout)).c_str(), v->exhibit.c_str(),
                v->description.c_str());
  }
  std::fprintf(stderr, "%zu variants\n", all.size());
  return 0;
}

int run_validate(std::size_t nopt) {
  int failed = 0;
  for (const auto& rep : engine::validate_all(nopt)) {
    if (rep.skipped) {
      std::printf("SKIP  %-32s (reference anchor)\n", rep.id.c_str());
    } else if (rep.ok) {
      std::printf("PASS  %-32s vs %-28s max_rel=%.3g\n", rep.id.c_str(),
                  rep.reference_id.c_str(), rep.max_rel_err);
    } else {
      std::printf("FAIL  %-32s vs %-28s %s\n", rep.id.c_str(), rep.reference_id.c_str(),
                  rep.detail.c_str());
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

// One line per live latency view: request/item counters plus the
// per-kernel end-to-end percentiles. Written to stderr so it interleaves
// with (rather than corrupts) the report table and --metrics on stdout.
void print_live_metrics() {
  std::uint64_t requests = 0, items = 0;
  std::uint64_t srv_submitted = 0, srv_completed = 0, srv_shed = 0;
  for (const auto& [name, v] : obs::snapshot_metrics().counters) {
    if (name == "engine.requests") requests = v;
    else if (name == "engine.items") items = v;
    else if (name == "serve.submitted") srv_submitted = v;
    else if (name == "serve.completed") srv_completed = v;
    else if (name == "robust.admission.shed") srv_shed = v;
  }
  std::fprintf(stderr, "[watch] engine.requests=%" PRIu64 " engine.items=%" PRIu64 "\n",
               requests, items);
  if (srv_submitted > 0) {
    std::fprintf(stderr,
                 "[watch] serve.submitted=%" PRIu64 " serve.completed=%" PRIu64
                 " admission.shed=%" PRIu64 "\n",
                 srv_submitted, srv_completed, srv_shed);
  }
  // Breaker states: only non-closed breakers are worth a line (a healthy
  // fleet prints nothing extra).
  for (const auto& [id, b] : resilience::BreakerRegistry::instance().snapshot()) {
    if (b.state == resilience::BreakerState::kClosed && b.trips == 0) continue;
    std::fprintf(stderr,
                 "[watch] breaker %s state=%s window=%zu/%zu trips=%" PRIu64
                 " rejected=%" PRIu64 " backoff=%.3gs\n",
                 id.c_str(), std::string(resilience::to_string(b.state)).c_str(),
                 b.window_failures, b.window_samples, b.trips, b.rejected, b.backoff_seconds);
  }
  for (const auto& h : obs::snapshot_histograms()) {
    const bool serve_series = h.name.rfind("serve.", 0) == 0;
    if ((h.name != "engine.request.seconds" && !serve_series) || h.snap.count == 0) continue;
    if (serve_series && h.name.size() >= 5 &&
        h.name.compare(h.name.size() - 5, 5, ".size") == 0) {
      // Dimensionless series (batch sizes ride the ns axis raw).
      std::fprintf(stderr, "[watch]   %s n=%" PRIu64 " p50=%.3g p90=%.3g max=%.3g\n",
                   h.key().c_str(), h.snap.count, 1e9 * h.snap.p50(), 1e9 * h.snap.p90(),
                   static_cast<double>(h.snap.max_ns));
      continue;
    }
    std::fprintf(stderr,
                 "[watch]   %s n=%" PRIu64 " p50=%.4gms p90=%.4gms p99=%.4gms max=%.4gms\n",
                 h.key().c_str(), h.snap.count, 1e3 * h.snap.p50(), 1e3 * h.snap.p90(),
                 1e3 * h.snap.p99(), 1e-6 * static_cast<double>(h.snap.max_ns));
  }
}

void print_parallel_stats() {
  for (const auto& [name, s] : obs::snapshot_metrics().stats) {
    if (name.rfind("parallel.", 0) == 0 && name.find(".imbalance") != std::string::npos &&
        s.count > 0) {
      std::printf("%-36s mean=%.3f max=%.3f (n=%" PRIu64 ")\n", name.c_str(), s.mean, s.max,
                  s.count);
    }
  }
}

// --serve N: the closed-loop request-stream mode. The workload splits into
// N sub-requests (each drawing its own options from seed + index over the
// same batch scalars, so the group is fusable by construction); every rep
// submits all N to a serve::Server and waits for completion, which
// exercises the queue, the admission gate, and — unless --no-coalesce —
// the coalescer re-fusing the stream back into large batches.
// `v` is null under auto dispatch (the intent has no registry entry yet);
// `family` is then the canonical kernel family, and the reporting variant
// is looked up from the first job's resolved id after the run.
int run_serve(const engine::VariantInfo* v, const std::string& family,
              const engine::PricingRequest& proto, engine::Layout req_layout, std::size_t items,
              int nreq, bool coalesce, bool brownout_on, bench::Options& opts,
              const std::string& metrics_path, int watch_ms) {
  const std::size_t per = std::max<std::size_t>(1, items / static_cast<std::size_t>(nreq));
  std::vector<core::Portfolio> pfs;
  pfs.reserve(static_cast<std::size_t>(nreq));
  std::vector<finbench::serve::PricingJob> jobs(static_cast<std::size_t>(nreq));
  std::size_t poisoned = 0;
  for (int j = 0; j < nreq; ++j) {
    const std::size_t seed = proto.seed + static_cast<std::size_t>(j);
    if (req_layout == engine::Layout::kSpecs) {
      core::SingleOptionWorkloadParams p;
      if (v ? v->european_only : family == "mc") p.style = core::ExerciseStyle::kEuropean;
      auto specs = core::make_option_workload(per, seed, p);
      if (proto.faults.poison > 0.0) {
        poisoned += robust::inject_input_faults(std::span<core::OptionSpec>(specs), proto.faults);
      }
      pfs.push_back(core::Portfolio::specs(std::span<const core::OptionSpec>(specs)));
    } else {
      pfs.push_back(core::Portfolio::bs(per, req_layout, seed));
      if (proto.faults.poison > 0.0) {
        poisoned += robust::inject_input_faults(pfs.back().view(), proto.faults);
      }
    }
    jobs[static_cast<std::size_t>(j)].request = proto;
    jobs[static_cast<std::size_t>(j)].request.portfolio = pfs.back().view();
  }

  finbench::serve::ServerConfig cfg;
  cfg.coalesce = coalesce;
  cfg.queue_capacity = std::max<std::size_t>(1024, 2 * static_cast<std::size_t>(nreq));
  cfg.brownout.enabled = brownout_on;
  finbench::serve::Server server(cfg);
  server.start();

  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (watch_ms > 0) {
    watcher = std::thread([watch_ms, &watch_stop] {
      while (!watch_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(watch_ms));
        print_live_metrics();
      }
    });
  }

  const double rate =
      bench::items_per_sec("pricectl.serve", per * static_cast<std::size_t>(nreq), opts.reps, [&] {
        for (auto& job : jobs) {
          const robust::Status st = server.submit(job);
          if (!st.ok()) throw std::runtime_error(st.to_string());
        }
        for (auto& job : jobs) {
          server.wait(job);
          if (!job.result.status.ok() &&
              job.result.status.code() != robust::StatusCode::kDeadlineExceeded) {
            throw std::runtime_error(job.result.status.to_string());
          }
        }
      });

  if (watcher.joinable()) {
    watch_stop.store(true, std::memory_order_relaxed);
    watcher.join();
    print_live_metrics();
  }
  server.stop();
  const finbench::serve::Server::Stats st = server.stats();

  // Under auto dispatch the jobs carry what the tuner resolved; report
  // through the resolved variant so rates/roofline stay meaningful.
  const engine::VariantInfo* rv = v;
  if (rv == nullptr) rv = engine::Registry::instance().find(jobs[0].result.resolved_id);

  opts.layout = std::string(engine::to_string(req_layout));
  harness::Report report("pricectl --serve: " + proto.kernel_id, "items/s");
  report.add_note("serve: " + std::to_string(nreq) + " requests x " + std::to_string(per) +
                  " items, coalesce = " + (coalesce ? std::string("on") : std::string("off")));
  if (jobs[0].result.tuned) {
    report.add_note("tune: " + proto.kernel_id + " -> " + jobs[0].result.resolved_id +
                    " (auto dispatch; coalescer keys on the resolved plan)");
  }
  report.add_note("serve: submitted = " + std::to_string(st.submitted) +
                  ", completed = " + std::to_string(st.completed) +
                  ", batches = " + std::to_string(st.batches) +
                  ", coalesced = " + std::to_string(st.coalesced) +
                  ", max_batch = " + std::to_string(st.max_batch));
  report.add_note("serve: shed(queue) = " + std::to_string(st.shed_queue) +
                  ", shed(bytes) = " + std::to_string(st.shed_bytes) +
                  ", expired_in_queue = " + std::to_string(st.expired_in_queue));
  if (st.retries > 0 || st.retry_denied > 0 || st.brownout_shed > 0 || st.brownout_level > 0) {
    report.add_note("resilience: retries = " + std::to_string(st.retries) +
                    ", retry_denied = " + std::to_string(st.retry_denied) +
                    ", brownout_shed = " + std::to_string(st.brownout_shed) +
                    ", brownout_level = " + std::to_string(st.brownout_level));
  }
  if (proto.faults.any()) {
    report.add_note("robust: inject = " + proto.faults.to_spec() +
                    ", poisoned = " + std::to_string(poisoned));
  }
  bench::Projector proj;
  const double flops = rv && rv->flops_per_item ? rv->flops_per_item(jobs[0].request) : 0.0;
  const double bytes = rv && rv->bytes_per_item ? rv->bytes_per_item(jobs[0].request) : 0.0;
  const int w = rv == nullptr || rv->width == 0 ? vecmath::max_width() : rv->width;
  report.add_row(
      proj.make_row(rv != nullptr ? rv->description : proto.kernel_id, rate, flops, bytes, w, w));
  if (metrics_path == "-") {
    bench::finish_quiet(report, opts);
    obs::write_openmetrics(std::cout);
  } else {
    bench::finish(report, opts);
    if (!metrics_path.empty() && !obs::write_openmetrics_file(metrics_path)) {
      std::fprintf(stderr, "error: could not write OpenMetrics to %s\n", metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}

constexpr const char* kUsage =
    "usage: pricectl --list | --validate | --kernel ID --nopt N [--json PATH]\n"
    "               [--auto] [--tune] [--explain] [--tune-cache PATH]\n"
    "               [--layout aos|soa|blocked|auto] [--chunks N] [--tasks on|off|auto]\n"
    "               [--steps N] [--npath N] [--prices N] [--depth N]\n"
    "               [--seed N] [--spy N] [--reps N] [--threads N] [--quick|--full]\n"
    "               [--csv PATH] [--trace PATH]\n"
    "               [--sanitize off|reject|clamp|skip] [--guard off|finite|full]\n"
    "               [--deadline-ms N] [--inject SPEC]\n"
    "               [--metrics PATH|-] [--watch MS] [--flight-dump PATH]\n"
    "               [--serve N] [--no-coalesce]\n"
    "               [--chaos \"variant=<id>,<faultplan-spec>\"] [--breaker on|off]\n"
    "               [--retry N] [--brownout on|off]\n"
    "       ID is a concrete variant (--list) or an auto intent '<family>.auto'\n"
    "       (bs/blackscholes, binomial, mc/montecarlo, brownian, cn/cranknicolson);\n"
    "       an auto intent's plan decides chunks and tasks, so --chunks and --tasks\n"
    "       need a concrete ID\n";

}  // namespace

int main(int argc, char** argv) {
  // pricectl's own usage, before bench::Options::parse prints the shared one.
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }
  auto opts = bench::Options::parse(argc, argv);

  bool list = false, validate = false;
  std::string kernel_id;
  std::string layout_flag = "auto";
  std::string inject_spec;
  std::string metrics_path;
  std::string flight_path;
  int watch_ms = 0;
  std::size_t nopt = 0;
  engine::PricingRequest req;
  int spy = 0;
  int serve_n = 0;
  bool no_coalesce = false;
  bool brownout_on = false;
  std::string chaos_spec;
  bool auto_mode = false;
  bool force_tune = false;
  bool explain = false;
  bool chunks_set = false, tasks_set = false;
  std::string tune_cache_path;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](std::size_t fallback) -> std::size_t {
      return i + 1 < argc ? std::strtoull(argv[++i], nullptr, 10) : fallback;
    };
    if (!std::strcmp(argv[i], "--list")) list = true;
    else if (!std::strcmp(argv[i], "--validate")) validate = true;
    else if (!std::strcmp(argv[i], "--kernel") && i + 1 < argc) kernel_id = argv[++i];
    else if (!std::strcmp(argv[i], "--nopt")) nopt = next(0);
    else if (!std::strcmp(argv[i], "--steps")) req.steps = static_cast<int>(next(req.steps));
    else if (!std::strcmp(argv[i], "--npath")) req.npath = next(req.npath);
    else if (!std::strcmp(argv[i], "--prices"))
      req.cn_num_prices = static_cast<int>(next(req.cn_num_prices));
    else if (!std::strcmp(argv[i], "--depth"))
      req.bridge_depth = static_cast<int>(next(req.bridge_depth));
    else if (!std::strcmp(argv[i], "--seed")) req.seed = next(req.seed);
    else if (!std::strcmp(argv[i], "--spy")) spy = static_cast<int>(next(0));
    else if (!std::strcmp(argv[i], "--layout") && i + 1 < argc) {
      layout_flag = argv[++i];
      if (layout_flag != "aos" && layout_flag != "soa" && layout_flag != "blocked" &&
          layout_flag != "auto") {
        std::fprintf(stderr, "pricectl: --layout takes aos, soa, blocked, or auto\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--chunks")) {
      req.chunks_per_thread = static_cast<int>(next(req.chunks_per_thread));
      chunks_set = true;
    } else if (!std::strcmp(argv[i], "--tasks") && i + 1 < argc) {
      tasks_set = true;
      const std::string t = argv[++i];
      if (t == "on") req.tasks = engine::TaskMode::kOn;
      else if (t == "off") req.tasks = engine::TaskMode::kOff;
      else if (t == "auto") req.tasks = engine::TaskMode::kAuto;
      else {
        std::fprintf(stderr, "pricectl: --tasks takes on, off, or auto\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--auto")) {
      auto_mode = true;
    } else if (!std::strcmp(argv[i], "--tune")) {
      force_tune = true;
    } else if (!std::strcmp(argv[i], "--explain")) {
      explain = true;
    } else if (!std::strcmp(argv[i], "--tune-cache") && i + 1 < argc) {
      tune_cache_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--sanitize") && i + 1 < argc) {
      const std::string s = argv[++i];
      if (s == "off") req.sanitize = robust::SanitizePolicy::kOff;
      else if (s == "reject") req.sanitize = robust::SanitizePolicy::kReject;
      else if (s == "clamp") req.sanitize = robust::SanitizePolicy::kClamp;
      else if (s == "skip") req.sanitize = robust::SanitizePolicy::kSkip;
      else {
        std::fprintf(stderr, "pricectl: --sanitize takes off, reject, clamp, or skip\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--guard") && i + 1 < argc) {
      const std::string g = argv[++i];
      if (g == "off") req.guard.mode = robust::GuardMode::kOff;
      else if (g == "finite") req.guard.mode = robust::GuardMode::kFinite;
      else if (g == "full") req.guard.mode = robust::GuardMode::kFull;
      else {
        std::fprintf(stderr, "pricectl: --guard takes off, finite, or full\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--deadline-ms")) {
      req.deadline_seconds = static_cast<double>(next(0)) * 1e-3;
    } else if (!std::strcmp(argv[i], "--inject") && i + 1 < argc) {
      inject_spec = argv[++i];
    } else if (!std::strcmp(argv[i], "--metrics") && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--flight-dump") && i + 1 < argc) {
      flight_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--watch")) {
      watch_ms = static_cast<int>(next(0));
    } else if (!std::strcmp(argv[i], "--serve")) {
      serve_n = static_cast<int>(next(0));
    } else if (!std::strcmp(argv[i], "--no-coalesce")) {
      no_coalesce = true;
    } else if (!std::strcmp(argv[i], "--chaos") && i + 1 < argc) {
      chaos_spec = argv[++i];
    } else if (!std::strcmp(argv[i], "--breaker") && i + 1 < argc) {
      const std::string b = argv[++i];
      if (b != "on" && b != "off") {
        std::fprintf(stderr, "pricectl: --breaker takes on or off\n");
        return 2;
      }
      resilience::BreakerRegistry::instance().set_enabled(b == "on");
    } else if (!std::strcmp(argv[i], "--retry")) {
      req.retry.max_attempts = static_cast<int>(next(1));
    } else if (!std::strcmp(argv[i], "--brownout") && i + 1 < argc) {
      const std::string b = argv[++i];
      if (b != "on" && b != "off") {
        std::fprintf(stderr, "pricectl: --brownout takes on or off\n");
        return 2;
      }
      brownout_on = b == "on";
      if (brownout_on) {
        // Make the ladder actionable: declare the workload degradable to
        // a quarter of its accuracy knobs.
        req.degrade.min_npath_fraction = 0.25;
        req.degrade.min_steps_fraction = 0.25;
      }
    } else if (const int nvals = bench::Options::flag_values(argv[i]);
               nvals >= 0 && i + nvals < argc) {
      i += nvals;  // already consumed by bench::Options::parse
    } else {
      std::fprintf(stderr, "pricectl: unknown flag or missing value: '%s' (see --help)\n",
                   argv[i]);
      return 2;
    }
  }

  if (!chaos_spec.empty()) {
    // "variant=<id>,<faultplan-spec>": bind the plan to the variant so
    // every request routed there is hit (the breaker-tripping kind).
    const std::string prefix = "variant=";
    const std::size_t comma = chaos_spec.find(',');
    if (chaos_spec.rfind(prefix, 0) != 0 || comma == std::string::npos ||
        comma <= prefix.size()) {
      std::fprintf(stderr, "pricectl: --chaos takes \"variant=<id>,<faultplan-spec>\"\n");
      return 2;
    }
    const std::string cid = chaos_spec.substr(prefix.size(), comma - prefix.size());
    auto plan = robust::FaultPlan::parse(chaos_spec.substr(comma + 1));
    if (!plan) {
      std::fprintf(stderr, "pricectl: --chaos: %s\n", plan.status().to_string().c_str());
      return 2;
    }
    resilience::set_variant_fault(cid, *plan);
  }

  if (!inject_spec.empty()) {
    auto plan = robust::FaultPlan::parse(inject_spec);
    if (!plan) {
      std::fprintf(stderr, "pricectl: --inject: %s\n", plan.status().to_string().c_str());
      return 2;
    }
    req.faults = *plan;
  }

  if (list) return run_list();
  if (validate) return run_validate(nopt ? nopt : 64);
  if (kernel_id.empty() && auto_mode) kernel_id = "bs.auto";
  if (kernel_id.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  // --auto turns a bare family name into the auto intent: "--auto --kernel
  // bs" prices "bs.auto". A concrete 3-part id with --auto is a
  // contradiction worth flagging rather than guessing about.
  if (auto_mode && !tune::is_auto_id(kernel_id)) {
    if (kernel_id.find('.') == std::string::npos) {
      kernel_id += ".auto";
    } else {
      std::fprintf(stderr,
                   "pricectl: --auto needs a kernel family (e.g. --kernel bs), not the "
                   "concrete variant id '%s'\n",
                   kernel_id.c_str());
      return 2;
    }
  }

  if (!tune_cache_path.empty()) {
    const robust::Status st = tune::PlanCache::instance().set_path(tune_cache_path);
    if (st.code() != robust::StatusCode::kOk) {
      std::fprintf(stderr, "pricectl: tune cache: %s\n", st.to_string().c_str());
    }
  }

  // Resolve what we're pricing: a concrete registry variant, or an auto
  // intent (known family, no registry entry — the engine resolves it).
  const bool auto_id = tune::is_auto_id(kernel_id);
  std::string family;
  const engine::VariantInfo* v = nullptr;
  if (auto_id && (chunks_set || tasks_set)) {
    std::fprintf(stderr,
                 "pricectl: %s decides chunks and tasks from its plan; --%s needs a concrete "
                 "kernel id\n",
                 kernel_id.c_str(), chunks_set ? "chunks" : "tasks");
    return 2;
  }
  if (auto_id) {
    family = std::string(tune::auto_family(kernel_id));
    if (family.empty()) {
      std::fprintf(stderr,
                   "pricectl: unknown auto family in '%s' (families: bs/blackscholes, "
                   "binomial, mc/montecarlo, brownian, cn/cranknicolson)\n",
                   kernel_id.c_str());
      return 2;
    }
  } else {
    v = engine::Registry::instance().find(kernel_id);
    if (!v) {
      std::fprintf(stderr, "pricectl: unknown kernel id '%s' (see --list)\n", kernel_id.c_str());
      return 2;
    }
  }
  req.kernel_id = kernel_id;
  if (spy > 0) req.steps_per_year = spy;

  // Native layout the workload is built in: the variant's own, or the
  // family default for an auto intent (BS books arrive AOS, Brownian wants
  // paths, the chunked families take specs).
  const engine::Layout native =
      v != nullptr ? v->layout
      : family == "bs" ? engine::Layout::kBsAos
      : family == "brownian" ? engine::Layout::kPaths
                             : engine::Layout::kSpecs;

  if (serve_n > 0) {
    engine::Layout serve_layout = native;
    switch (native) {
      case engine::Layout::kBsAos:
      case engine::Layout::kBsSoa:
      case engine::Layout::kBsSoaF:
      case engine::Layout::kBsBlocked:
        if (layout_flag == "aos") serve_layout = engine::Layout::kBsAos;
        else if (layout_flag == "soa") serve_layout = engine::Layout::kBsSoa;
        else if (layout_flag == "blocked") serve_layout = engine::Layout::kBsBlocked;
        break;
      case engine::Layout::kSpecs:
        break;
      default:
        std::fprintf(stderr, "pricectl: --serve has no workload builder for layout '%s'\n",
                     std::string(engine::to_string(native)).c_str());
        return 2;
    }
    return run_serve(v, family, req, serve_layout, nopt ? nopt : (1u << 18), serve_n,
                     !no_coalesce, brownout_on, opts, metrics_path, watch_ms);
  }

  // Workload by layout, sized for an interactive run unless --nopt given.
  // One owning Portfolio covers every case; the request just carries its
  // view. --layout overrides the BS layout (the engine negotiates any
  // mismatch and reports the one-time conversion cost).
  core::Portfolio pf;
  std::size_t items = nopt;
  std::size_t poisoned = 0;
  engine::Layout req_layout = native;
  switch (native) {
    case engine::Layout::kBsAos:
    case engine::Layout::kBsSoa:
    case engine::Layout::kBsSoaF:
    case engine::Layout::kBsBlocked:
      if (layout_flag == "aos") req_layout = engine::Layout::kBsAos;
      else if (layout_flag == "soa") req_layout = engine::Layout::kBsSoa;
      else if (layout_flag == "blocked") req_layout = engine::Layout::kBsBlocked;
      pf = core::Portfolio::bs(items = items ? items : (1u << 18), req_layout, req.seed);
      // Poison the owned workload, not the engine's working copy — the
      // engine only ever repairs faults, it never manufactures them on
      // the caller's data.
      if (req.faults.poison > 0.0) poisoned = robust::inject_input_faults(pf.view(), req.faults);
      break;
    case engine::Layout::kSpecs: {
      core::SingleOptionWorkloadParams p;
      if (v != nullptr ? v->european_only : family == "mc") {
        p.style = core::ExerciseStyle::kEuropean;
      }
      if ((v != nullptr ? v->kernel : family) == "cn") {
        p.style = core::ExerciseStyle::kAmerican;
        p.vol_min = 0.2;
        p.vol_max = 0.4;
      }
      auto specs = core::make_option_workload(items = items ? items : 64, req.seed, p);
      if (req.faults.poison > 0.0) {
        poisoned =
            robust::inject_input_faults(std::span<core::OptionSpec>(specs), req.faults);
      }
      if (spy > 0) {
        // Maturity-sorted book (how portfolios usually arrive): with
        // steps-per-year lattices the per-option cost ramps quadratically
        // across the batch, so static contiguous stripes are maximally
        // skewed — the case the dynamic schedule exists to absorb.
        std::sort(specs.begin(), specs.end(),
                  [](const core::OptionSpec& a, const core::OptionSpec& b) {
                    return a.years < b.years;
                  });
      }
      pf = core::Portfolio::specs(std::span<const core::OptionSpec>(specs));
      break;
    }
    case engine::Layout::kPaths:
      pf = core::Portfolio::paths(items = items ? items : (1u << 16));
      break;
    default:
      std::fprintf(stderr, "pricectl: no workload builder for layout '%s'\n",
                   std::string(engine::to_string(native)).c_str());
      return 2;
  }
  req.portfolio = pf.view();

  // --tune: drop this workload's key from the plan cache so the pricing
  // below re-races even when a (possibly stale) plan is already cached.
  if (auto_id && force_tune) {
    const tune::TuneKey key =
        tune::key_for(req, family, engine::Engine::shared().pool_size());
    tune::PlanCache::instance().erase(key);
  }

  // Route the engine's automatic post-mortem dump to the requested path
  // before anything can trigger it.
  if (!flight_path.empty()) obs::set_flight_dump_path(flight_path);

  // Live view: a sampling thread prints the latency state every watch_ms
  // until the measurement completes (plus one final sample), so a long
  // run is observable while it is still in flight.
  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (watch_ms > 0) {
    watcher = std::thread([watch_ms, &watch_stop] {
      while (!watch_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(watch_ms));
        print_live_metrics();
      }
    });
  }

  engine::Engine& eng = engine::Engine::shared();
  engine::PricingResult last;
  const double rate = bench::items_per_sec(kernel_id.c_str(), items, opts.reps, [&] {
    last = eng.price(req);
    // Degraded and deadline-partial results are designed outcomes of the
    // robustness controls, not benchmark failures; only a result the
    // engine could not deliver at all aborts the run.
    if (!last.status.ok() && last.status.code() != robust::StatusCode::kDeadlineExceeded) {
      throw std::runtime_error(last.status.to_string());
    }
  });

  if (watcher.joinable()) {
    watch_stop.store(true, std::memory_order_relaxed);
    watcher.join();
    print_live_metrics();
  }

  // The reporting variant: the one named, or the one the tuner resolved.
  const engine::VariantInfo* rv =
      v != nullptr ? v : engine::Registry::instance().find(last.resolved_id);
  const engine::Layout rv_layout = rv != nullptr ? rv->layout : last.layout;

  // The plan a tuned run dispatched through (for the chunks note and
  // --explain); the cache holds it under the request's own key.
  std::optional<tune::DispatchPlan> plan;
  tune::TuneKey key;
  if (auto_id) {
    key = tune::key_for(req, family, eng.pool_size());
    plan = tune::PlanCache::instance().find(key);
  }

  // Layout provenance: what the request carried, what the variant needed,
  // and what the negotiation cost on the last repetition (the engine
  // converts chunk by chunk on every call).
  opts.layout = std::string(engine::to_string(req_layout));
  opts.convert_seconds = last.convert_seconds;
  if (last.convert_bytes > 0) {
    std::printf("layout negotiation: %s -> %s, conversion %.3g ms per call (%zu bytes)\n",
                std::string(engine::to_string(req_layout)).c_str(),
                std::string(engine::to_string(rv_layout)).c_str(),
                1e3 * last.convert_seconds, last.convert_bytes);
  }

  harness::Report report("pricectl: " + kernel_id, "items/s");
  report.add_note("layout = " + opts.layout + " (variant native: " +
                  std::string(engine::to_string(rv_layout)) +
                  "), items = " + std::to_string(items) +
                  ", exhibit = " + (rv != nullptr ? rv->exhibit : std::string("-")));
  if (last.convert_bytes > 0) {
    report.add_note("negotiated conversion = " + harness::eng(last.convert_seconds) +
                    " s per call, " + std::to_string(last.convert_bytes) + " bytes");
  }
  if (last.tuned) {
    report.add_note("tune: " + kernel_id + " -> " + last.resolved_id + " (auto dispatch)");
    std::string counters = "tune:";
    for (const auto& [name, c] : obs::snapshot_metrics().counters) {
      if (name.rfind("engine.tune.", 0) == 0) {
        counters += " " + name.substr(sizeof("engine.tune.") - 1) + "=" + std::to_string(c);
      }
    }
    report.add_note(counters);
  }
  // A tuned run executes its plan's chunks and task mode, not the request's.
  if (last.tuned && plan) {
    report.add_note("chunks_per_thread = " + std::to_string(plan->chunks_per_thread) +
                    ", tasks = " + (plan->tasks ? "on" : "off") + " [tuned]");
  }
  // Intra-option fork-join provenance: the requested mode plus whatever the
  // nested task layer actually did (the run report's `tasks` object carries
  // the same counters in machine form).
  {
    std::string tnote = std::string("tasks = ") +
                        (req.tasks == engine::TaskMode::kOn    ? "on"
                         : req.tasks == engine::TaskMode::kOff ? "off"
                                                               : "auto");
    for (const auto& [name, c] : obs::snapshot_metrics().counters) {
      if (name.rfind("engine.tasks.", 0) == 0) {
        tnote += ", " + name.substr(sizeof("engine.") - 1) + " = " + std::to_string(c);
      }
    }
    report.add_note(tnote);
  }
  // Robustness provenance: what policies ran and what they had to do.
  // The run report's `robust` object carries the obs counters; these notes
  // are the human-readable summary of the same run.
  report.add_note("robust: status = " + std::string(robust::to_string(last.status.code())) +
                  ", sanitize = " + std::string(robust::to_string(req.sanitize)) +
                  ", guard = " + std::string(robust::to_string(req.guard.mode)));
  if (req.faults.any()) {
    report.add_note("robust: inject = " + req.faults.to_spec() +
                    ", poisoned = " + std::to_string(poisoned));
  }
  if (last.status.code() != robust::StatusCode::kOk) {
    std::printf("robust: %s\n", last.status.to_string().c_str());
    std::printf(
        "robust: clamped=%zu skipped=%zu repaired=%zu chunks(degraded=%zu failed=%zu "
        "deadline=%zu)\n",
        last.options_clamped, last.options_skipped, last.options_repaired,
        last.chunks_degraded, last.chunks_failed, last.chunks_deadline);
    report.add_note("robust: clamped = " + std::to_string(last.options_clamped) +
                    ", skipped = " + std::to_string(last.options_skipped) +
                    ", repaired = " + std::to_string(last.options_repaired) +
                    ", chunks degraded = " + std::to_string(last.chunks_degraded) +
                    ", failed = " + std::to_string(last.chunks_failed) +
                    ", deadline = " + std::to_string(last.chunks_deadline));
  }
  bench::Projector proj;
  const double flops = rv && rv->flops_per_item ? rv->flops_per_item(req) : 0.0;
  const double bytes = rv && rv->bytes_per_item ? rv->bytes_per_item(req) : 0.0;
  const int w = rv == nullptr || rv->width == 0 ? vecmath::max_width() : rv->width;
  report.add_row(
      proj.make_row(rv != nullptr ? rv->description : kernel_id, rate, flops, bytes, w, w));
  // `--metrics -` claims stdout for the OpenMetrics exposition, so the
  // report table and parallel stats are suppressed (the JSON/CSV/trace
  // exports still run) — scrapers get a pure document they can pipe
  // straight into a validator or a pushgateway.
  if (metrics_path == "-") {
    bench::finish_quiet(report, opts);
  } else {
    bench::finish(report, opts);
    print_parallel_stats();
  }

  // One-shot OpenMetrics scrape of everything the run recorded.
  int rc = 0;
  if (!metrics_path.empty()) {
    if (metrics_path == "-") {
      obs::write_openmetrics(std::cout);
    } else if (!obs::write_openmetrics_file(metrics_path)) {
      std::fprintf(stderr, "error: could not write OpenMetrics to %s\n", metrics_path.c_str());
      rc = 1;
    }
  }

  // --explain: the race evidence behind this workload's plan — every
  // candidate configuration's measured rate and imbalance. (To stderr when
  // `--metrics -` owns stdout.)
  if (explain && auto_id) {
    FILE* out = metrics_path == "-" ? stderr : stdout;
    if (const auto rep = tune::PlanCache::instance().explain(key)) {
      std::fprintf(out, "tune: key %s\n", key.to_string().c_str());
      std::fprintf(out,
                   "tune: winner %s cpt=%d tasks=%s %.4g items/s imbalance=%.3f (race %.2f s)\n",
                   rep->winner.variant_id.c_str(), rep->winner.chunks_per_thread,
                   rep->winner.tasks ? "on" : "off", rep->winner.items_per_sec,
                   rep->winner.imbalance, rep->race_seconds);
      for (const auto& c : rep->candidates) {
        std::fprintf(out, "tune:   %-34s cpt=%-3d tasks=%-3s %12.4g items/s imbalance=%.3f%s%s\n",
                     c.id.c_str(), c.chunks_per_thread, c.tasks ? "on" : "off",
                     c.items_per_sec, c.imbalance, c.ok ? "" : "  FAILED: ",
                     c.ok ? "" : c.note.c_str());
      }
    } else {
      std::fprintf(out, "tune: no cache entry for key %s\n", key.to_string().c_str());
    }
  }

  // On-demand flight dump (the engine may already have auto-dumped to the
  // same path on a deadline / kernel error; this rewrite includes every
  // record up to now, so it is strictly fresher).
  if (!flight_path.empty() && !obs::write_flight_dump(flight_path, "on_demand")) {
    std::fprintf(stderr, "error: could not write flight dump to %s\n", flight_path.c_str());
    rc = 1;
  }
  return rc;
}
