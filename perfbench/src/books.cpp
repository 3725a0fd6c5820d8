// perfbench/src/books.cpp — the bs_book and exotic_book workloads.
//
// bs_book: a Black–Scholes book of 12M AOS options (480 MB, over 4x the
// last-level cache) priced by "blackscholes.auto" through Engine::price.
// Before each call the benchmark moves every spot by one market tick and
// builds a fresh request, so each call pays for sanitization, layout
// negotiation, the kernel and writeback, as a risk rerun does. (Reusing
// one request across in-place ticks would be wrong: the engine caches a
// negotiated copy keyed on the source pointer, size and layout, so a
// negotiating variant would keep pricing the old spots.)
//
// exotic_book: a heterogeneous OptionSpec book of American and European
// puts with maturities skewed short. One book run is three Engine::price
// calls: "binomial.auto" with steps_per_year (lattice depth grows with
// maturity), "cranknicolson.auto", and "montecarlo.auto" on the European
// subset.
//
// The traced run alternates untraced and traced calls (their difference is
// obs.trace_overhead_frac) and, around the traced ones, times the layers
// the engine call is made of by calling them directly: robust::sanitize,
// core::convert / copy_outputs, and the resolved variant's run_batch.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "finbench/arch/machine_model.hpp"
#include "finbench/core/analytic.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/robust/sanitize.hpp"
#include "finbench/tune/cache.hpp"
#include "finbench/tune/tuner.hpp"

namespace perfbench {

namespace {

using namespace finbench;

double ms(double s) { return 1e3 * s; }

const engine::VariantInfo& variant(const std::string& id) {
  const engine::VariantInfo* v = engine::Registry::instance().find(id);
  if (v == nullptr) throw std::runtime_error("unknown variant " + id);
  return *v;
}

// Kernel-layer figures of one run_batch: throughput, and the FLOP and
// byte rates computed from the variant's cost-model metadata (computed,
// not counted), against the host roofline.
void kernel_metrics(RunResult& out, const std::string& family, const engine::VariantInfo& v,
                    const engine::PricingRequest& req, double items, double seconds) {
  const double rate = seconds > 0.0 ? items / seconds : 0.0;
  const double f = v.flops_per_item != nullptr ? v.flops_per_item(req) : 0.0;
  const double b = v.bytes_per_item != nullptr ? v.bytes_per_item(req) : 0.0;
  const arch::RooflineBound roof = arch::roofline(arch::host(), f, b);
  const std::string k = "kernels." + family + ".";
  out.set(k + "opts_per_s", rate, "1/s");
  out.set(k + "gflops", rate * f * 1e-9, "GFLOP/s");
  out.set(k + "gbps", rate * b * 1e-9, "GB/s");
  out.set(k + "roof_frac", roof.items_per_sec() > 0.0 ? rate / roof.items_per_sec() : 0.0, "1");
  out.info["kernels." + family + ".variant"] = v.id + " (flops and bytes computed from metadata)";
}

// The book metrics over the calls kept by keep_least_stolen (the calls
// free of steal time, or the least-stolen half): options per second of the
// median call, the median call, and the highest whole percentile with at
// least ten calls beyond it. Each call's time is scaled by the share of
// CPU time the guest actually received during it, 1 - stolen share (a
// no-op without steal), and the median call rather than the mean keeps
// one stalled call from moving the throughput.
void report_calls(RunResult& out, const std::vector<double>& call_s,
                  const std::vector<double>& stolen, double opts_per_call) {
  const std::vector<bool> keep = keep_least_stolen(stolen, StealMonitor::kMaxStealFrac);
  std::vector<double> kept, raw = call_s;
  for (std::size_t i = 0; i < call_s.size(); ++i) {
    if (keep[i]) kept.push_back(call_s[i] * (1.0 - std::min(stolen[i], 1.0)));
  }
  std::sort(raw.begin(), raw.end());
  out.info_num["p50_ms.unadjusted_all_calls"] = ms(percentile(raw, 50.0));
  std::sort(kept.begin(), kept.end());
  const double mid = percentile(kept, 50.0);
  const Tail t = tail_percentile(kept, 99);
  out.set("opts_per_s", mid > 0.0 ? opts_per_call / mid : 0.0, "1/s");
  out.set("p50_ms", ms(percentile(kept, 50.0)), "ms");
  out.set("tail_ms", ms(t.value), "ms");
  out.info["tail_ms.percentile"] = "p" + std::to_string(t.pct) + " of n=" +
                                   std::to_string(t.n) + " calls" +
                                   (t.supported ? "" : " (fewer than 11 samples: maximum)");
  out.info_num["calls_set_aside"] = static_cast<double>(call_s.size() - kept.size());
}

struct Pool {
  explicit Pool(int participants) : pool(participants), eng(&pool) {}
  engine::ThreadPool pool;
  engine::Engine eng;
};

std::uint64_t tasks_spawned() { return obs::counter("engine.tasks.spawned").value(); }

std::size_t chunks_of(const engine::PricingResult& r) {
  return r.chunk_status.empty() ? 1 : r.chunk_status.size();
}

}  // namespace

// ---------------------------------------------------------------------------
// bs_book
// ---------------------------------------------------------------------------

RunResult run_bs_book(const Options& o, Tracer& tr) {
  RunResult out;
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::size_t n = o.smoke ? 200000 : 12000000;
  const int setups = o.smoke ? 1 : 2;
  constexpr std::size_t kSample = 256;

  std::unique_ptr<Pool> p;
  core::Portfolio book;
  std::vector<double> setup_s, race_s;
  for (int k = 0; k < setups; ++k) {
    p.reset();
    book = core::Portfolio();
    tune::PlanCache::instance().clear();
    const double t0 = now_s();
    p = std::make_unique<Pool>(nproc);
    book = core::Portfolio::bs(n, core::Layout::kBsAos, o.seed);
    engine::PricingRequest req;
    req.kernel_id = "blackscholes.auto";
    req.portfolio = book.view();
    race_s.push_back(resolve_cold(p->eng, req, "bs", "bs_book", out));
    setup_s.push_back(now_s() - t0);
  }
  engine::Engine& eng = p->eng;
  const core::BsAosView view = book.view().aos;
  out.info_num["participants"] = eng.pool_size();
  out.info_num["book_options"] = static_cast<double>(n);
  out.info_num["book_bytes"] = static_cast<double>(n * sizeof(core::BsOptionAos));

  std::mt19937_64 rng(o.seed * 7919 + 17);
  std::normal_distribution<double> z(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  auto tick = [&] {
    const double m = std::exp(0.01 * z(rng));
    core::BsOptionAos* opt = view.options.data();
    const std::ptrdiff_t cnt = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < cnt; ++i) opt[i].spot *= m;
  };
  // Sampled closed-form check of one call; returns options found wrong.
  std::string resolved;
  double tol = 1e-9;
  auto oracle = [&](const engine::PricingResult& res) -> std::size_t {
    if (res.resolved_id != resolved) {
      resolved = res.resolved_id;
      tol = variant(resolved).tolerance;
    }
    std::size_t bad = 0;
    for (std::size_t s = 0; s < kSample; ++s) {
      const core::BsOptionAos& x = view.options[pick(rng)];
      const core::BsPrice want =
          core::black_scholes(x.spot, x.strike, x.years, view.rate, view.vol, view.dividend);
      if (rel_err(x.call, want.call) > tol || rel_err(x.put, want.put) > tol) ++bad;
    }
    return bad;
  };
  auto account = [&](const engine::PricingResult& res, std::size_t bad) {
    if (!res.status.ok()) {
      out.ledger.record(res.status.code() == robust::StatusCode::kDeadlineExceeded
                            ? Outcome::kExpired
                            : Outcome::kFailed,
                        n);
      return;
    }
    const std::size_t skipped = res.options_skipped;
    out.ledger.record(Outcome::kFailed, skipped);
    out.ledger.record(Outcome::kWrong, bad);
    out.ledger.record(Outcome::kOk, n - skipped - bad);
    if (bad > 0 && out.wrong.size() < 4) {
      out.wrong.push_back("bs_book: " + std::to_string(bad) + " of " + std::to_string(kSample) +
                          " sampled options of " + res.resolved_id +
                          " disagree with the closed form");
    }
  };

  // One call as a risk rerun makes it: tick, fresh request, price, check.
  engine::PricingResult res;
  std::uint64_t degraded = 0;
  std::vector<double> stolen;
  auto call = [&](bool traced) -> double {
    const std::uint64_t a = now_ns();
    tick();
    const std::uint64_t b = now_ns();
    engine::PricingRequest req;
    req.kernel_id = "blackscholes.auto";
    req.portfolio = book.view();
    eng.price(req, res);
    const std::uint64_t c = now_ns();
    const std::size_t bad = oracle(res);
    const std::uint64_t d = now_ns();
    account(res, bad);
    if (res.status.degraded()) ++degraded;
    if (traced) {
      const std::int32_t root = tr.add("bench.call", a, d, -1, res.request_id);
      tr.add("bench.tick", a, b, root, res.request_id);
      tr.add("engine.price", b, c, root, res.request_id);
      tr.add("bench.oracle", c, d, root, res.request_id);
    }
    stolen.push_back(steal_monitor().frac(b, c));
    return 1e-9 * static_cast<double>(c - b);
  };

  call(false);  // warm-up: first touch of the engine's buffers
  out.ledger = Ledger{};
  out.wrong.clear();
  stolen.clear();

  std::vector<double> call_s;
  const double t_end = now_s() + o.seconds;
  if (!o.trace) {
    while (now_s() < t_end || call_s.size() < 3) call_s.push_back(call(false));
    report_calls(out, call_s, stolen, static_cast<double>(n));
  } else {
    // Layer decomposition around the traced calls.
    const engine::VariantInfo& v = variant(res.resolved_id);
    core::Arena arena;
    std::vector<double> t_price, t_san, t_conv, t_run, t_copy, t_native, traced_s;
    std::uint64_t spawned = 0, chunks = 0;
    robust::SanitizeReport rep;
    for (std::size_t k = 0; now_s() < t_end || k < 4; ++k) {
      if (k % 2 == 0) {
        call_s.push_back(call(false));
        continue;
      }
      tr.set_on(true);
      const std::uint64_t s0 = tasks_spawned();
      traced_s.push_back(call(true));
      spawned += tasks_spawned() - s0;
      chunks += chunks_of(res);
      t_price.push_back(traced_s.back());

      const std::uint64_t r0 = now_ns();
      core::PortfolioView working = book.view();
      std::uint64_t a = now_ns();
      robust::sanitize(working, robust::SanitizePolicy::kSkip, rep);
      std::uint64_t b = now_ns();
      const std::int32_t root = tr.add("bench.replay", r0, r0, -1, res.request_id);
      tr.add("robust.sanitize", a, b, root, res.request_id);
      t_san.push_back(1e-9 * static_cast<double>(b - a));
      arena.reset();
      a = now_ns();
      const core::PortfolioView native = core::convert(working, v.layout, arena);
      b = now_ns();
      tr.add("core.convert", a, b, root, res.request_id);
      t_conv.push_back(1e-9 * static_cast<double>(b - a));
      engine::PricingRequest rq;
      rq.kernel_id = v.id;
      rq.portfolio = native;
      engine::PricingResult rr;
      a = now_ns();
      v.run_batch(rq, native, rr);
      b = now_ns();
      tr.add("kernels.run_batch", a, b, root, res.request_id);
      t_run.push_back(1e-9 * static_cast<double>(b - a));
      a = now_ns();
      if (native.layout != working.layout) core::copy_outputs(native, working);
      b = now_ns();
      tr.add("core.copy_outputs", a, b, root, res.request_id);
      t_copy.push_back(1e-9 * static_cast<double>(b - a));
      a = now_ns();
      eng.price(rq, rr);
      b = now_ns();
      tr.add("engine.price_native", a, b, root, rr.request_id);
      t_native.push_back(1e-9 * static_cast<double>(b - a));
      tr.close(root, b);
      tr.set_on(false);
    }
    const double price = median(t_price);
    const double parts = median(t_san) + median(t_conv) + median(t_run) + median(t_copy);
    out.set("engine.unattributed_frac", price > 0 ? 1.0 - parts / price : 0.0, "1");
    out.set("engine.vs_openmp", median(t_run) > 0 ? median(t_native) / median(t_run) : 0.0, "1");
    out.set("engine.chunks_per_call",
            static_cast<double>(chunks) / static_cast<double>(t_price.size()), "count");
    out.set("engine.tasks_spawned_per_call",
            static_cast<double>(spawned) / static_cast<double>(t_price.size()), "count");
    out.set("robust.sanitize_ns_per_opt", 1e9 * median(t_san) / static_cast<double>(n), "ns");
    kernel_metrics(out, "bs", v, [&] {
      engine::PricingRequest rq;
      rq.kernel_id = v.id;
      rq.portfolio = book.view();
      return rq;
    }(), static_cast<double>(n), median(t_run));

    // The core layer's conversion rates, on the layout pair the engine
    // negotiates for SOA variants (the resolved variant may need none).
    arena.reset();
    core::ConvertStats cs;
    const core::PortfolioView soa = core::convert(book.view(), core::Layout::kBsSoa, arena, &cs);
    const std::uint64_t a = now_ns();
    const std::size_t bytes = core::copy_outputs(soa, book.view());
    const double wb = 1e-9 * static_cast<double>(now_ns() - a);
    out.set("core.convert_gbps", cs.seconds > 0 ? 1e-9 * cs.bytes / cs.seconds : 0.0, "GB/s");
    out.set("core.writeback_gbps", wb > 0 ? 1e-9 * static_cast<double>(bytes) / wb : 0.0, "GB/s");
    out.info["core.convert"] = "bs_aos -> bs_soa and back; the engine converts to " +
                               std::string(core::to_string(v.layout)) + " for " + v.id;

    const double u = median(call_s), t = median(traced_s);
    out.set("obs.trace_overhead_frac", u > 0 ? t / u - 1.0 : 0.0, "1");
    out.set("tune.race_s", median(race_s), "s");
    engine::PricingRequest rq;
    rq.kernel_id = "blackscholes.auto";
    rq.portfolio = book.view();
    out.set("tune.resolve_hit_us", 1e6 * resolve_hit_seconds(eng, rq, "bs", 200), "us");
    out.set("robust.degraded", static_cast<double>(degraded), "count");
  }
  out.set("setup_s", median(setup_s), "s");
  out.set("ok_frac", 1.0 - out.ledger.error_rate(), "1");
  return out;
}

// ---------------------------------------------------------------------------
// exotic_book
// ---------------------------------------------------------------------------

namespace {

// Monte Carlo prices are checked against the closed form within this many
// standard errors. A correct estimator misses a 5-sigma band with
// probability 5.7e-7 per option, so a book of a few hundred Europeans
// passes on every seed; a 4-sigma band (6.3e-5 per option) would fail a
// correct run on about 3% of seeds. The absolute floor covers puts so far
// out of the money that no path reaches the strike (estimate and standard
// error both 0 against a closed form of a few 1e-6).
constexpr double kMcSigmas = 5.0;
constexpr double kMcFloor = 1e-4;

struct Exotic {
  std::vector<core::OptionSpec> book;      // American and European puts
  std::vector<core::OptionSpec> european;  // the European subset (MC)
};

Exotic make_exotic(std::size_t n, std::uint64_t seed) {
  Exotic e;
  std::mt19937_64 rng(seed * 104729 + 3);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    core::OptionSpec o;
    o.spot = 80.0 + 40.0 * u01(rng);
    o.strike = 80.0 + 40.0 * u01(rng);
    const double u = u01(rng);
    o.years = 0.05 + 2.95 * u * u * u;  // most short, a few long
    o.rate = 0.01 + 0.04 * u01(rng);
    o.vol = 0.15 + 0.30 * u01(rng);
    o.type = core::OptionType::kPut;
    o.style = u01(rng) < 0.5 ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
    e.book.push_back(o);
    if (o.style == core::ExerciseStyle::kEuropean) e.european.push_back(o);
  }
  return e;
}

// The three requests of one book run, as fresh requests.
struct BookRequests {
  engine::PricingRequest bin, cn, mc;
};

BookRequests requests_for(const Exotic& e, bool smoke) {
  BookRequests r;
  r.bin.kernel_id = "binomial.auto";
  r.bin.steps_per_year = smoke ? 64 : 512;
  r.bin.portfolio = core::view_of(std::span<const core::OptionSpec>(e.book));
  r.cn.kernel_id = "cranknicolson.auto";
  r.cn.steps = smoke ? 32 : 128;
  r.cn.cn_num_prices = smoke ? 65 : 129;
  r.cn.portfolio = core::view_of(std::span<const core::OptionSpec>(e.book));
  r.mc.kernel_id = "montecarlo.auto";
  r.mc.npath = smoke ? 4096 : 16384;
  r.mc.portfolio = core::view_of(std::span<const core::OptionSpec>(e.european));
  return r;
}

// Reference-link values on a sample of the book, computed once at set-up
// end and excluded from setup_s.
struct Sample {
  std::vector<std::size_t> idx;
  std::vector<double> bin, cn;
  double bin_tol = 0.0, cn_tol = 0.0;
};

std::vector<double> reference_on(const engine::VariantInfo& v, const engine::PricingRequest& req,
                                 std::span<const core::OptionSpec> specs) {
  const engine::Registry& reg = engine::Registry::instance();
  const engine::VariantInfo* ref = v.reference_id.empty() ? &v : reg.find(v.reference_id);
  if (ref == nullptr) ref = &v;
  engine::PricingRequest rq = req;
  rq.kernel_id = ref->id;
  rq.scratch.reset();
  rq.portfolio = core::view_of(specs);
  engine::PricingResult res;
  ref->run_batch(rq, rq.portfolio, res);
  return res.values;
}

}  // namespace

RunResult run_exotic_book(const Options& o, Tracer& tr) {
  RunResult out;
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::size_t n = o.smoke ? 48 : 1024;
  const int setups = o.smoke ? 1 : 2;

  std::unique_ptr<Pool> p;
  Exotic e;
  std::vector<double> setup_s, race_s;
  for (int k = 0; k < setups; ++k) {
    p.reset();
    tune::PlanCache::instance().clear();
    const double t0 = now_s();
    p = std::make_unique<Pool>(nproc);
    e = make_exotic(n, o.seed);
    const BookRequests rq = requests_for(e, o.smoke);
    double race = resolve_cold(p->eng, rq.bin, "binomial", "binomial", out);
    race += resolve_cold(p->eng, rq.cn, "cn", "cn", out);
    race += resolve_cold(p->eng, rq.mc, "mc", "mc", out);
    setup_s.push_back(now_s() - t0);
    race_s.push_back(race);
  }
  engine::Engine& eng = p->eng;
  out.info_num["participants"] = eng.pool_size();
  out.info_num["book_options"] = static_cast<double>(e.book.size());
  out.info_num["book_european"] = static_cast<double>(e.european.size());
  out.info_num["book_bytes"] = static_cast<double>(e.book.size() * sizeof(core::OptionSpec));

  // Resolve once more (cache hits) to learn the plans, then the sample.
  BookRequests base = requests_for(e, o.smoke);
  engine::PricingResult rb, rc, rm;
  eng.price(base.bin, rb);
  eng.price(base.cn, rc);
  eng.price(base.mc, rm);
  const engine::VariantInfo& vb = variant(rb.resolved_id);
  const engine::VariantInfo& vc = variant(rc.resolved_id);
  const engine::VariantInfo& vm = variant(rm.resolved_id);
  Sample smp;
  {
    std::mt19937_64 rng(o.seed + 99);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::vector<core::OptionSpec> specs;
    for (int k = 0; k < 16; ++k) {
      smp.idx.push_back(pick(rng));
      specs.push_back(e.book[smp.idx.back()]);
    }
    smp.bin = reference_on(vb, base.bin, specs);
    smp.cn = reference_on(vc, base.cn, specs);
    smp.bin_tol = vb.tolerance;
    smp.cn_tol = vc.tolerance;
  }

  const double units = static_cast<double>(2 * e.book.size() + e.european.size());
  auto check = [&](const engine::PricingResult& r, const char* what, bool lattice,
                   const std::vector<double>& ref, double tol) {
    const std::size_t items = lattice ? e.book.size() : e.european.size();
    if (!r.status.ok() || r.values.size() != items) {
      out.ledger.record(r.status.code() == robust::StatusCode::kDeadlineExceeded
                            ? Outcome::kExpired
                            : Outcome::kFailed,
                        items);
      if (out.wrong.size() < 4 && r.status.ok()) {
        out.wrong.push_back(std::string("exotic_book: ") + what + " returned " +
                            std::to_string(r.values.size()) + " values for " +
                            std::to_string(items) + " options");
      }
      return;
    }
    std::size_t bad = 0;
    if (lattice) {
      for (std::size_t k = 0; k < smp.idx.size(); ++k) {
        if (rel_err(r.values[smp.idx[k]], ref[k]) > tol) ++bad;
      }
    } else {
      // Each European price within kMcSigmas standard errors (plus the
      // floor) of the closed form.
      for (std::size_t k = 0; k < items; ++k) {
        const double want = core::black_scholes_price(e.european[k]);
        const double se = r.std_errors.size() > k ? r.std_errors[k] : 0.0;
        if (!(std::fabs(r.values[k] - want) <= kMcSigmas * se + kMcFloor)) ++bad;
      }
    }
    out.ledger.record(Outcome::kFailed, r.options_skipped);
    out.ledger.record(Outcome::kWrong, bad);
    out.ledger.record(Outcome::kOk, items - std::min(items, bad + r.options_skipped));
    if (bad > 0 && out.wrong.size() < 4) {
      out.wrong.push_back(std::string("exotic_book: ") + std::to_string(bad) + " " + what +
                          " prices of " + r.resolved_id + " outside their reference band");
    }
  };

  std::uint64_t degraded = 0, spawned = 0, chunks = 0, calls = 0;
  std::vector<double> stolen;
  // One book run: three fresh requests, priced and checked.
  auto book_run = [&](bool traced) -> double {
    BookRequests rq = requests_for(e, o.smoke);
    const std::uint64_t s0 = tasks_spawned();
    const std::uint64_t a = now_ns();
    eng.price(rq.bin, rb);
    const std::uint64_t b = now_ns();
    eng.price(rq.cn, rc);
    const std::uint64_t c = now_ns();
    eng.price(rq.mc, rm);
    const std::uint64_t d = now_ns();
    spawned += tasks_spawned() - s0;
    chunks += chunks_of(rb) + chunks_of(rc) + chunks_of(rm);
    calls += 3;
    check(rb, "binomial", true, smp.bin, smp.bin_tol);
    check(rc, "crank-nicolson", true, smp.cn, smp.cn_tol);
    check(rm, "monte-carlo", false, {}, 0.0);
    for (const auto* r : {&rb, &rc, &rm}) degraded += r->status.degraded() ? 1 : 0;
    if (traced) {
      const std::int32_t root = tr.add("bench.book_run", a, d, -1, rb.request_id);
      tr.add("engine.price", a, b, root, rb.request_id);
      tr.add("engine.price", b, c, root, rc.request_id);
      tr.add("engine.price", c, d, root, rm.request_id);
    }
    stolen.push_back(steal_monitor().frac(a, d));
    return 1e-9 * static_cast<double>(d - a);
  };

  book_run(false);  // warm-up
  out.ledger = Ledger{};
  out.wrong.clear();
  stolen.clear();
  spawned = chunks = calls = 0;

  std::vector<double> run_s, traced_s;
  const double t_end = now_s() + o.seconds;
  if (!o.trace) {
    while (now_s() < t_end || run_s.size() < 3) run_s.push_back(book_run(false));
    report_calls(out, run_s, stolen, units);
  } else {
    // Layer replays first, so the alternating runs below get the rest of
    // the time budget: sanitize_specs, run_batch of each resolved variant
    // (the kernel layer and the OpenMP comparison), the same variants
    // through Engine::price with explicit ids, and one book run on a
    // single-participant engine.
    tr.set_on(true);
    std::vector<core::OptionSpec> copy(e.book.size());
    robust::SanitizeReport rep;
    std::uint64_t a = now_ns();
    robust::sanitize_specs(e.book, copy, robust::SanitizePolicy::kSkip, rep);
    std::uint64_t b = now_ns();
    std::int32_t root = tr.add("bench.replay", a, a);
    tr.add("robust.sanitize_specs", a, b, root);
    out.set("robust.sanitize_ns_per_opt", static_cast<double>(b - a) / static_cast<double>(n),
            "ns");

    struct Fam {
      const char* name;
      const engine::VariantInfo* v;
      engine::PricingRequest req;
      double items;
    };
    std::vector<Fam> fams = {
        {"binomial", &vb, base.bin, static_cast<double>(e.book.size())},
        {"cn", &vc, base.cn, static_cast<double>(e.book.size())},
        {"mc", &vm, base.mc, static_cast<double>(e.european.size())},
    };
    double t_batch = 0.0, t_engine = 0.0, t_single = 0.0;
    Pool single(1);
    for (Fam& f : fams) {
      const tune::DispatchPlan plan =
          tune::PlanCache::instance()
              .find(tune::key_for(f.req, f.name, eng.pool_size()))
              .value_or(tune::DispatchPlan{f.v->id});
      f.req.kernel_id = f.v->id;
      f.req.schedule = plan.schedule;
      f.req.chunks_per_thread = plan.chunks_per_thread;
      f.req.tasks = plan.tasks ? engine::TaskMode::kOn : engine::TaskMode::kOff;
      engine::PricingResult rr;
      engine::PricingRequest rq = f.req;
      a = now_ns();
      f.v->run_batch(rq, rq.portfolio, rr);
      b = now_ns();
      tr.add("kernels.run_batch", a, b, root);
      const double tb = 1e-9 * static_cast<double>(b - a);
      t_batch += tb;
      kernel_metrics(out, f.name, *f.v, f.req, f.items, tb);
      rq = f.req;
      a = now_ns();
      eng.price(rq, rr);
      b = now_ns();
      tr.add("engine.price_explicit", a, b, root, rr.request_id);
      t_engine += 1e-9 * static_cast<double>(b - a);
      rq = f.req;
      a = now_ns();
      single.eng.price(rq, rr);
      b = now_ns();
      tr.add("engine.price_single", a, b, root, rr.request_id);
      t_single += 1e-9 * static_cast<double>(b - a);
    }
    tr.close(root, b);
    tr.set_on(false);
    out.set("engine.vs_openmp", t_batch > 0 ? t_engine / t_batch : 0.0, "1");

    for (std::size_t k = 0; now_s() < t_end || k < 4; ++k) {
      const bool traced = k % 2 == 1;
      tr.set_on(traced);
      (traced ? traced_s : run_s).push_back(book_run(traced));
      tr.set_on(false);
    }
    const double tn = median(run_s);
    out.set("engine.parallel_eff", tn > 0 ? t_single / (eng.pool_size() * tn) : 0.0, "1");
    out.info_num["engine.single_participant_run_s"] = t_single;
    out.set("engine.chunks_per_call", static_cast<double>(chunks) / static_cast<double>(calls),
            "count");
    out.set("engine.tasks_spawned_per_call",
            static_cast<double>(spawned) / static_cast<double>(calls), "count");
    const double u = median(run_s), t = median(traced_s);
    out.set("obs.trace_overhead_frac", u > 0 ? t / u - 1.0 : 0.0, "1");
    out.set("tune.race_s", median(race_s), "s");
    out.set("tune.resolve_hit_us", 1e6 * resolve_hit_seconds(eng, base.bin, "binomial", 200),
            "us");
    out.set("robust.degraded", static_cast<double>(degraded), "count");
    probe_serve_layers(o, out, tr);
  }
  out.set("setup_s", median(setup_s), "s");
  out.set("ok_frac", 1.0 - out.ledger.error_rate(), "1");
  return out;
}

}  // namespace perfbench
