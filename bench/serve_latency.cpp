// serve_latency — open-loop latency of the request-stream server core
// (finbench::serve, docs/serve.md).
//
// Methodology: arrivals are OPEN-LOOP — submit times are drawn up front
// from a Poisson process at the offered load and honored regardless of
// how far behind the server is. A closed loop (submit, wait, repeat)
// would let a slow server throttle its own arrival stream and hide every
// queueing spike behind the one request in flight (coordinated omission);
// the open loop charges the full enqueue→complete time of every request
// to the latency distribution, which is what a caller of a real pricing
// service experiences.
//
// Offered loads are derived from a measured calibration of the
// single-request service time, so the same utilization points (well below
// saturation up to just above it) reproduce across hosts. Each
// (mode, load) point runs on a fresh serve::Server whose histograms carry
// `mode="...",load="..."` labels — the per-point quantiles land in the v2
// run report's `histograms` object — and the report rows/notes carry the
// exact (sample-sorted, not bucketed) p50/p99/p99.9 per point.
//
// The coalescing comparison prices the identical request stream twice:
// `uncoalesced` dispatches every request as its own Engine::price call,
// `coalesced` lets the dispatcher fuse the backlog into grouped
// Engine::price_group calls. Batching is a throughput optimization with
// a latency cost structure: below saturation it adds a little assembly
// delay (members complete with their batch), while at and beyond
// saturation the extra capacity bounds backlog growth and the open-loop
// p99 — which is pure queueing delay there — drops below the uncoalesced
// server's. The highest load point runs above single-stream capacity to
// make that regime explicit.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/serve/server.hpp"

using namespace finbench;

namespace {

// Small per-request portfolios: the stream-of-small-requests regime the
// server exists for (a whole-batch caller would just use Engine::price).
constexpr std::size_t kOptionsPerRequest = 32;
constexpr int kTrials = 3;  // best-of trials per (mode, load) point
const char* kKernelId = "bs.blocked_fused_sp.auto";  // AOS-native: no negotiation

double quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct PointResult {
  double offered = 0.0;    // req/s the arrival process targeted
  double achieved = 0.0;   // completed / wall
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t max_batch = 0;
};

// One (mode, load) measurement: a fresh server, one pre-drawn Poisson
// arrival schedule, every accepted request's enqueue→complete latency.
PointResult run_point(std::vector<serve::PricingJob>& jobs, std::size_t nreq, double load,
                      bool coalesce, const std::string& labels) {
  serve::ServerConfig cfg;
  cfg.coalesce = coalesce;
  cfg.queue_capacity = std::max<std::size_t>(1024, 2 * nreq);
  // Bound the fused-batch duration: near saturation an uncapped coalescer
  // convoys — the backlog that accumulates while one giant batch prices
  // becomes the next giant batch, and every member pays a whole batch
  // round of latency. A small cap keeps the fusion win (it saturates
  // quickly with member count) while keeping each dispatch round short.
  cfg.max_batch_requests = 32;
  cfg.histogram_labels = labels;
  serve::Server server(cfg);
  server.start();

  // Pre-drawn exponential gaps: the schedule is fixed before the first
  // submit, so server behavior cannot perturb the arrival process. The
  // seed depends only on the load so both modes replay the identical
  // schedule — the comparison sees the same bursts.
  std::mt19937_64 rng(12345 + static_cast<std::uint64_t>(load));
  std::exponential_distribution<double> gap(load);
  std::vector<double> arrival(nreq);
  double t = 0.0;
  for (std::size_t i = 0; i < nreq; ++i) arrival[i] = (t += gap(rng));

  std::vector<std::uint8_t> accepted(nreq, 0);
  PointResult pr;
  pr.offered = load;

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < nreq; ++i) {
    // Hybrid pacing: coarse sleep, then spin across the last stretch so
    // submit jitter stays well under the latencies being measured.
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
    else ++pr.shed;
  }
  for (std::size_t i = 0; i < nreq; ++i) {
    if (accepted[i]) server.wait(jobs[i]);
  }
  const double wall = std::chrono::duration<double>(clock::now() - t0).count();
  server.stop();

  std::vector<double> lat;
  lat.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    if (accepted[i]) lat.push_back(jobs[i].total_seconds);
  }
  std::sort(lat.begin(), lat.end());
  pr.achieved = wall > 0.0 ? static_cast<double>(lat.size()) / wall : 0.0;
  pr.p50 = quantile(lat, 0.50);
  pr.p99 = quantile(lat, 0.99);
  pr.p999 = quantile(lat, 0.999);
  pr.max_batch = server.stats().max_batch;
  return pr;
}

std::string ms(double seconds) { return harness::eng(1e3 * seconds) + " ms"; }

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  const std::size_t nreq = opts.full ? 20000 : 2000;
  const std::vector<double> utilizations =
      opts.full ? std::vector<double>{0.2, 0.5, 0.9, 1.2} : std::vector<double>{0.3, 0.9, 1.2};

  harness::Report report("serve: open-loop request latency under offered load", "requests/s");
  report.add_note("open-loop Poisson arrivals: submit times pre-drawn at the offered load and "
                  "honored regardless of backlog (no coordinated omission)");
  report.add_note("request = " + std::to_string(kOptionsPerRequest) + " options through " +
                  std::string(kKernelId));

  // Calibrate the single-request service time so offered loads are
  // utilization points of THIS host's single-stream capacity.
  engine::Engine& eng = engine::Engine::shared();
  std::vector<core::Portfolio> pfs;
  std::vector<serve::PricingJob> jobs(nreq);
  pfs.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    pfs.push_back(core::Portfolio::bs(kOptionsPerRequest, core::Layout::kBsAos, 1 + i));
    jobs[i].request.kernel_id = kKernelId;
    jobs[i].request.portfolio = pfs.back().view();
  }
  const double svc = 1.0 / bench::items_per_sec("serve.calibrate", 1, 5, [&] {
    engine::PricingResult res = eng.price(jobs[0].request);
    if (!res.status.ok()) throw std::runtime_error(res.status.to_string());
  });
  const double capacity = 1.0 / svc;
  report.add_note("calibration: single-request service time = " + harness::eng(svc) +
                  " s (single-stream capacity ~" + harness::eng(capacity) + " req/s)");

  double top_coalesced_p99 = 0.0, top_uncoalesced_p99 = 0.0;
  bool coalescing_always_batched = true;
  for (const double util : utilizations) {
    const double load = util * capacity;
    const auto load_label = std::to_string(static_cast<long long>(load));
    for (const bool coalesce : {false, true}) {
      const char* mode = coalesce ? "coalesced" : "uncoalesced";
      const std::string labels =
          "mode=\"" + std::string(mode) + "\",load=\"" + load_label + "\"";
      // Best-of-trials, the same convention every throughput bench here
      // uses (bench::items_per_sec reports best-of-reps): a shared-host
      // scheduler stall inside one trial otherwise dominates the p99.
      PointResult pr = run_point(jobs, nreq, load, coalesce, labels);
      for (int trial = 1; trial < kTrials; ++trial) {
        const PointResult t = run_point(jobs, nreq, load, coalesce, labels);
        if (t.p99 < pr.p99) pr = t;
      }

      harness::Row row;
      row.label = std::string(mode) + " @ " + load_label + " req/s (util " +
                  harness::eng(util) + ")";
      row.host_items_per_sec = pr.achieved;
      report.add_row(row);
      report.add_note(row.label + ": p50 = " + ms(pr.p50) + ", p99 = " + ms(pr.p99) +
                      ", p99.9 = " + ms(pr.p999) + ", shed = " + std::to_string(pr.shed) +
                      ", max_batch = " + std::to_string(pr.max_batch));
      if (coalesce) {
        if (pr.max_batch <= 1) coalescing_always_batched = false;
        top_coalesced_p99 = pr.p99;
      } else {
        top_uncoalesced_p99 = pr.p99;
      }
    }
  }

  report.add_check("coalescer fuses under load (max_batch > 1 at every point)",
                   coalescing_always_batched);
  report.add_check(
      "coalescing does not worsen p99 at the highest offered load",
      top_coalesced_p99 <= 1.05 * top_uncoalesced_p99,
      "coalesced p99 = " + ms(top_coalesced_p99) +
          " vs uncoalesced p99 = " + ms(top_uncoalesced_p99));

  bench::finish(report, opts);
  return 0;
}
