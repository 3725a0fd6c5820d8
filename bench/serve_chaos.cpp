// serve_chaos — the deterministic chaos harness for the serve path's
// resilience machinery (finbench::resilience, docs/resilience.md).
//
// Four scenarios, each an open-loop Poisson request stream against a
// fresh serve::Server, every fault drawn from seed-keyed splitmix64
// streams so a failing run replays exactly:
//
//   poison_breakers_on   the tuned winner of bs.auto is poisoned with a
//                        variant-scoped throw_rate=1.0 fault
//                        (resilience/chaos.hpp) while requests stream in
//                        with retries enabled and chunk-level fallback
//                        OFF. The circuit breaker trips on the failure
//                        burst, tune::resolve substitutes the variant's
//                        fallback chain, and retried requests land on the
//                        healthy substitute — availability recovers while
//                        the poison is still active.
//   poison_breakers_off  the identical schedule with the breaker registry
//                        disabled: every request keeps routing to the
//                        poisoned winner and fails. The measured
//                        availability gap is the breakers' contribution.
//   brownout_on          a 2x-capacity overload of deadline-carrying
//                        binomial requests that declare degradation floors
//                        (steps may drop to 1/4). The brownout ladder
//                        steps down, degraded requests run ~16x cheaper,
//                        and the open-loop p99 stays bounded; completed
//                        degraded results are marked kDegraded with the
//                        applied knobs.
//   brownout_off         the identical overload with the ladder disabled:
//                        the backlog (and p99) grows with the stream.
//
// The run writes a finbench.chaos_report/v1 JSON document;
// tools/validate.py chaos asserts the resilience contract over it
// (availability >= 99% with breakers on and measurably worse off, >= 1
// trip, bounded hysteretic brownout transitions, p99_on < p99_off,
// degraded results marked). A crash anywhere is a nonzero exit, which the
// CI chaos-smoke job treats as failure on its own.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/obs/json.hpp"
#include "finbench/resilience/breaker.hpp"
#include "finbench/resilience/chaos.hpp"
#include "finbench/robust/fault.hpp"
#include "finbench/serve/server.hpp"

using namespace finbench;

namespace {

struct ScenarioResult {
  std::string name;
  std::size_t sent = 0;
  std::size_t accepted = 0;
  std::size_t available = 0;   // accepted jobs whose final status is ok()
  double availability = 0.0;   // available / accepted
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t trips = 0;         // poisoned variant's breaker trips
  std::uint64_t retries = 0;       // server stat
  std::uint64_t transitions = 0;   // brownout ladder transitions
  std::uint64_t brownout_shed = 0;
  int max_level = 0;     // highest brownout level a completed job saw
  int final_level = 0;   // ladder level when the stream drained
  std::size_t degraded_marked = 0;  // kDegraded results with applied knobs
  double wall_seconds = 0.0;
};

double quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Open-loop submission: arrival times pre-drawn from a Poisson process at
// `load` req/s (seeded, so paired scenarios replay the identical
// schedule), honored regardless of backlog.
void stream_jobs(serve::Server& server, std::vector<serve::PricingJob>& jobs, double load,
                 std::uint64_t seed, ScenarioResult& out, std::vector<std::uint8_t>& accepted) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(load);
  std::vector<double> arrival(jobs.size());
  double t = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) arrival[i] = (t += gap(rng));

  accepted.assign(jobs.size(), 0);
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<clock::duration>(
                              std::chrono::duration<double>(arrival[i]));
    for (;;) {
      const auto now = clock::now();
      if (now >= due) break;
      if (due - now > std::chrono::microseconds(300)) {
        std::this_thread::sleep_for(due - now - std::chrono::microseconds(200));
      } else {
        std::this_thread::yield();
      }
    }
    if (server.submit(jobs[i]).ok()) accepted[i] = 1;
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (accepted[i]) server.wait(jobs[i]);
  }
  out.wall_seconds = std::chrono::duration<double>(clock::now() - t0).count();
}

void collect_latency(const std::vector<serve::PricingJob>& jobs,
                     const std::vector<std::uint8_t>& accepted, ScenarioResult& out) {
  std::vector<double> lat;
  lat.reserve(jobs.size());
  out.sent = jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!accepted[i]) continue;
    ++out.accepted;
    lat.push_back(jobs[i].total_seconds);
    const auto& r = jobs[i].result;
    if (r.status.ok()) ++out.available;
    if (r.status.code() == robust::StatusCode::kDegraded && r.brownout_level > 0) {
      ++out.degraded_marked;
    }
    out.max_level = std::max(out.max_level, r.brownout_level);
  }
  std::sort(lat.begin(), lat.end());
  out.availability =
      out.accepted > 0 ? static_cast<double>(out.available) / static_cast<double>(out.accepted)
                       : 0.0;
  out.p50_ms = 1e3 * quantile(lat, 0.50);
  out.p99_ms = 1e3 * quantile(lat, 0.99);
}

// --- Poison scenarios --------------------------------------------------------

// Resolve bs.auto once so the tuner races and caches a winner; that winner
// is what the chaos fault will poison.
std::string prime_winner() {
  core::Portfolio pf = core::Portfolio::bs(32, core::Layout::kBsAos, 7);
  engine::PricingRequest req;
  req.kernel_id = "bs.auto";
  req.portfolio = pf.view();
  const engine::PricingResult res = engine::Engine::shared().price(req);
  if (!res.status.ok() || res.resolved_id.empty()) {
    throw std::runtime_error("serve_chaos: priming bs.auto failed: " + res.status.to_string());
  }
  return res.resolved_id;
}

ScenarioResult run_poison(const char* name, bool breakers_on, const std::string& winner,
                          std::size_t nreq, double load, std::uint64_t seed) {
  auto& brk = resilience::BreakerRegistry::instance();
  brk.reset();
  brk.set_enabled(breakers_on);
  robust::FaultPlan plan;
  plan.seed = seed;
  plan.throw_rate = 1.0;  // every chunk of the poisoned variant throws
  resilience::set_variant_fault(winner, plan);

  std::vector<core::Portfolio> pfs;
  std::vector<serve::PricingJob> jobs(nreq);
  pfs.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    pfs.push_back(core::Portfolio::bs(32, core::Layout::kBsAos, 100 + i));
    auto& req = jobs[i].request;
    req.kernel_id = "bs.auto";
    req.portfolio = pfs.back().view();
    // Chunk-level fallback OFF: only the breaker -> resolve substitution
    // (plus retries) can save a request, which is what this measures.
    req.fallback = false;
    req.retry.max_attempts = 4;
    req.retry.base_backoff_seconds = 0.002;
    req.retry.max_backoff_seconds = 0.050;
  }

  serve::ServerConfig cfg;
  cfg.coalesce = false;  // one breaker outcome per request
  cfg.queue_capacity = std::max<std::size_t>(1024, 2 * nreq);
  cfg.retry_tokens_per_request = 0.5;
  cfg.retry_burst = 16.0;
  serve::Server server(cfg);
  server.start();

  ScenarioResult out;
  out.name = name;
  std::vector<std::uint8_t> accepted;
  stream_jobs(server, jobs, load, seed, out, accepted);
  server.stop();
  collect_latency(jobs, accepted, out);
  out.retries = server.stats().retries;
  for (const auto& [id, snap] : brk.snapshot()) {
    if (id == winner) out.trips = snap.trips;
  }

  resilience::clear_variant_faults();
  brk.reset();
  brk.set_enabled(true);
  return out;
}

// --- Brownout scenarios ------------------------------------------------------

ScenarioResult run_brownout(const char* name, bool brownout_on, std::size_t nreq, double load,
                            std::uint64_t seed) {
  std::vector<std::vector<core::OptionSpec>> books;
  std::vector<core::Portfolio> pfs;
  std::vector<serve::PricingJob> jobs(nreq);
  books.reserve(nreq);
  pfs.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    books.push_back(core::make_option_workload(16, 300 + i));
    pfs.push_back(core::Portfolio::specs(
        std::span<const core::OptionSpec>(books.back())));
    auto& req = jobs[i].request;
    req.kernel_id = "binomial.intermediate.auto";
    req.portfolio = pfs.back().view();
    req.steps = 2048;
    req.deadline_seconds = 0.200;  // misses feed the overload signal
    req.degrade.min_steps_fraction = 0.25;  // ~16x cheaper at the floor
  }

  serve::ServerConfig cfg;
  cfg.queue_capacity = std::max<std::size_t>(1024, 2 * nreq);
  cfg.brownout.enabled = brownout_on;
  // Aggressive thresholds so a short overload drives the ladder; the
  // hysteresis knobs keep transitions bounded regardless.
  cfg.brownout.queue_p99_seconds = 0.010;
  cfg.brownout.miss_ratio = 0.05;
  cfg.brownout.eval_interval_seconds = 0.005;
  cfg.brownout.dwell_seconds = 0.020;
  cfg.brownout.up_dwell_seconds = 0.150;
  cfg.brownout.min_samples = 8;
  serve::Server server(cfg);
  server.start();

  ScenarioResult out;
  out.name = name;
  std::vector<std::uint8_t> accepted;
  stream_jobs(server, jobs, load, seed, out, accepted);
  const auto bsnap = server.brownout_snapshot();
  const auto stats = server.stats();
  server.stop();
  collect_latency(jobs, accepted, out);
  out.transitions = bsnap.transitions;
  out.final_level = bsnap.level;
  out.brownout_shed = stats.brownout_shed;
  return out;
}

void write_scenario(obs::json::Writer& w, const ScenarioResult& s) {
  w.begin_object();
  w.kv("name", s.name);
  w.kv("sent", static_cast<std::uint64_t>(s.sent));
  w.kv("accepted", static_cast<std::uint64_t>(s.accepted));
  w.kv("available", static_cast<std::uint64_t>(s.available));
  w.kv("availability", s.availability);
  w.kv("p50_ms", s.p50_ms);
  w.kv("p99_ms", s.p99_ms);
  w.kv("trips", s.trips);
  w.kv("retries", s.retries);
  w.kv("transitions", s.transitions);
  w.kv("brownout_shed", s.brownout_shed);
  w.kv("max_level", s.max_level);
  w.kv("final_level", s.final_level);
  w.kv("degraded_marked", static_cast<std::uint64_t>(s.degraded_marked));
  w.kv("wall_seconds", s.wall_seconds);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint64_t seed = 42;
  std::string out_path = "serve_chaos_report.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) quick = true;
    else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[++i];
    else {
      std::fprintf(stderr, "usage: serve_chaos [--quick] [--seed N] [--out PATH]\n");
      return 2;
    }
  }

  const std::size_t n_poison = quick ? 300 : 2000;
  const std::size_t n_brown = quick ? 250 : 1000;

  // Calibrate the two request shapes so loads are utilization points of
  // this host, like serve_latency does.
  const std::string winner = prime_winner();
  std::fprintf(stderr, "serve_chaos: bs.auto winner = %s (to be poisoned)\n", winner.c_str());

  core::Portfolio cal_pf = core::Portfolio::bs(32, core::Layout::kBsAos, 7);
  engine::PricingRequest cal;
  cal.kernel_id = "bs.auto";
  cal.portfolio = cal_pf.view();
  auto time_one = [](engine::PricingRequest& r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < 5; ++k) {
      const engine::PricingResult res = engine::Engine::shared().price(r);
      if (!res.status.ok()) throw std::runtime_error(res.status.to_string());
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() / 5.0;
  };
  const double bs_svc = time_one(cal);
  // Keep the BS stream comfortably below capacity (failures should come
  // from the poison, not from queueing) and bounded in absolute rate so
  // the pacing loop stays honest.
  const double bs_load = std::min(0.25 / bs_svc, 20000.0);

  auto cal_book = core::make_option_workload(16, 3);
  core::Portfolio cal_pf2 = core::Portfolio::specs(std::span<const core::OptionSpec>(cal_book));
  engine::PricingRequest cal2;
  cal2.kernel_id = "binomial.intermediate.auto";
  cal2.portfolio = cal_pf2.view();
  cal2.steps = 2048;
  const double bin_svc = time_one(cal2);
  const double bin_load = 2.0 / bin_svc;  // 2x capacity: a genuine overload
  std::fprintf(stderr, "serve_chaos: bs svc=%.3gms load=%.0f/s; binomial svc=%.3gms load=%.0f/s\n",
               1e3 * bs_svc, bs_load, 1e3 * bin_svc, bin_load);

  std::vector<ScenarioResult> results;
  results.push_back(run_poison("poison_breakers_on", true, winner, n_poison, bs_load, seed));
  results.push_back(run_poison("poison_breakers_off", false, winner, n_poison, bs_load, seed));
  results.push_back(run_brownout("brownout_on", true, n_brown, bin_load, seed + 1));
  results.push_back(run_brownout("brownout_off", false, n_brown, bin_load, seed + 1));

  for (const ScenarioResult& s : results) {
    std::fprintf(stderr,
                 "serve_chaos: %-20s sent=%zu avail=%.4f p50=%.3gms p99=%.3gms trips=%llu "
                 "retries=%llu transitions=%llu max_level=%d degraded=%zu\n",
                 s.name.c_str(), s.sent, s.availability, s.p50_ms, s.p99_ms,
                 static_cast<unsigned long long>(s.trips),
                 static_cast<unsigned long long>(s.retries),
                 static_cast<unsigned long long>(s.transitions), s.max_level, s.degraded_marked);
  }

  std::ofstream f(out_path, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "serve_chaos: cannot write %s\n", out_path.c_str());
    return 1;
  }
  obs::json::Writer w(f);
  w.begin_object();
  w.kv("schema", "finbench.chaos_report/v1");
  w.kv("seed", seed);
  w.kv("quick", quick);
  w.kv("poisoned_variant", winner);
  w.key("scenarios");
  w.begin_array();
  for (const ScenarioResult& s : results) write_scenario(w, s);
  w.end_array();
  w.end_object();
  f << '\n';
  std::fprintf(stderr, "serve_chaos: report -> %s\n", out_path.c_str());
  return f ? 0 : 1;
}
