// perfbench/src/quote_stream.cpp — the quote_stream workload.
//
// One generator thread offers an open-loop Poisson stream of small
// pricing requests to serve::Server (coalescing on, default config) over
// an engine of nproc-1 participants, so the generator keeps a core of its
// own. About 90% of requests are 32-option AOS Black–Scholes quotes
// ("blackscholes.auto") on one of four underlyings with distinct vol, so
// only quotes on the same underlying can fuse; about 10% are 8-option
// American binomial requests ("binomial.auto", 256 steps).
//
// Arrivals are pre-drawn from the seed and every request is timed from
// its due time, not from its submit: a generator that falls behind
// charges its lateness to the latency it reports, and the lateness itself
// is reported as bench.gen_lag_us.p99. The offered rates are absolute
// (command-line arguments), never calibrated per run.
//
// A run climbs a rate ladder (steps 5% apart) to find the highest rate
// whose p99 stays within 1 ms with at least 98% of the offered rate
// completed, then runs the `light` and `heavy` phases at their fixed
// rates.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "finbench/core/analytic.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/serve/server.hpp"
#include "finbench/tune/cache.hpp"

namespace perfbench {

namespace {

using namespace finbench;

constexpr std::size_t kBsOptions = 32;
constexpr std::size_t kBinOptions = 8;
constexpr int kBinSteps = 256;
constexpr double kBinShare = 0.10;
constexpr double kRate = 0.03;
constexpr double kSloS = 1e-3;
constexpr double kAchievedFrac = 0.98;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderMaxSteps = 24;

struct Underlying {
  double spot, vol;
};
constexpr std::array<Underlying, 4> kUnderlyings = {
    {{100.0, 0.18}, {50.0, 0.26}, {180.0, 0.34}, {25.0, 0.45}}};

struct BsTemplate {
  std::size_t u = 0;  // underlying
  std::array<core::BsOptionAos, kBsOptions> opt{};
  std::array<double, kBsOptions> call{}, put{};  // closed-form reference
};

struct BinTemplate {
  std::vector<core::OptionSpec> specs;
  std::vector<double> ref;  // reference-link variant values
};

struct Slot {
  serve::PricingJob job;
  core::BsBatchAos bs;  // BS slots: the quote's own options; prices land here
  std::int64_t req = -1;  // phase request in flight, -1 when free
  std::uint32_t tpl = 0;
  std::uint64_t done_ns = 0;  // stamped on the dispatcher before done() flips
};

void on_done(void* ctx, serve::PricingJob&) { static_cast<Slot*>(ctx)->done_ns = now_ns(); }

serve::ServerConfig server_config(engine::Engine* eng) {
  serve::ServerConfig cfg;
  cfg.engine = eng;
  return cfg;
}

// One set-up of the workload: pool, engine, server, templates and job
// slots. Destroyed (server stopped, pool joined) before the next set-up.
struct Stream {
  Stream(int participants, std::size_t bs_slots, std::size_t bin_slots)
      : pool(participants), eng(&pool), server(server_config(&eng)),
        bs(std::make_unique<Slot[]>(bs_slots)), bin(std::make_unique<Slot[]>(bin_slots)),
        nbs(bs_slots), nbin(bin_slots) {
    for (std::size_t i = 0; i < nbs; ++i) {
      Slot& s = bs[i];
      s.bs.options.resize(kBsOptions);
      s.bs.rate = kRate;
      s.job.request.kernel_id = "blackscholes.auto";
      s.job.on_done = &on_done;
      s.job.on_done_ctx = &s;
    }
    for (std::size_t i = 0; i < nbin; ++i) {
      Slot& s = bin[i];
      s.job.request.kernel_id = "binomial.auto";
      s.job.request.steps = kBinSteps;
      s.job.on_done = &on_done;
      s.job.on_done_ctx = &s;
    }
    server.start();
  }
  ~Stream() { server.stop(); }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  engine::ThreadPool pool;
  engine::Engine eng;
  serve::Server server;
  std::vector<BsTemplate> bs_tpl;
  std::vector<BinTemplate> bin_tpl;
  std::unique_ptr<Slot[]> bs, bin;
  std::size_t nbs, nbin;
};

void build_templates(Stream& s, std::uint64_t seed, std::size_t per_underlying,
                     std::size_t nbin) {
  std::mt19937_64 rng(seed ^ 0x51ed2701u);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  for (std::size_t u = 0; u < kUnderlyings.size(); ++u) {
    for (std::size_t t = 0; t < per_underlying; ++t) {
      BsTemplate bt;
      bt.u = u;
      for (auto& o : bt.opt) {
        o.spot = kUnderlyings[u].spot * (0.98 + 0.04 * u01(rng));
        o.strike = kUnderlyings[u].spot * (0.8 + 0.4 * u01(rng));
        o.years = 0.1 + 1.9 * u01(rng);
        o.call = o.put = 0.0;
      }
      s.bs_tpl.push_back(bt);
    }
  }
  for (std::size_t t = 0; t < nbin; ++t) {
    BinTemplate b;
    for (std::size_t k = 0; k < kBinOptions; ++k) {
      core::OptionSpec o;
      o.spot = 80.0 + 40.0 * u01(rng);
      o.strike = 80.0 + 40.0 * u01(rng);
      o.years = 0.25 + 1.25 * u01(rng);
      o.rate = kRate;
      o.vol = 0.2 + 0.2 * u01(rng);
      o.type = core::OptionType::kPut;
      o.style = core::ExerciseStyle::kAmerican;
      b.specs.push_back(o);
    }
    s.bin_tpl.push_back(std::move(b));
  }
}

// The benchmark's own reference values (not part of set-up time): closed
// form for the quotes, the resolved binomial variant's reference link for
// the lattice requests.
void build_references(Stream& s, const std::string& bin_variant) {
  for (BsTemplate& bt : s.bs_tpl) {
    for (std::size_t k = 0; k < kBsOptions; ++k) {
      const auto& o = bt.opt[k];
      const core::BsPrice p =
          core::black_scholes(o.spot, o.strike, o.years, kRate, kUnderlyings[bt.u].vol, 0.0);
      bt.call[k] = p.call;
      bt.put[k] = p.put;
    }
  }
  const engine::Registry& reg = engine::Registry::instance();
  const engine::VariantInfo* v = reg.find(bin_variant);
  const engine::VariantInfo* ref =
      v != nullptr && !v->reference_id.empty() ? reg.find(v->reference_id) : v;
  if (ref == nullptr) ref = reg.find("binomial.reference.scalar");
  for (BinTemplate& b : s.bin_tpl) {
    engine::PricingRequest req;
    req.kernel_id = ref->id;
    req.steps = kBinSteps;
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(b.specs));
    engine::PricingResult res;
    ref->run_batch(req, req.portfolio, res);
    b.ref = res.values;
  }
}

// Registry tolerance of a resolved variant id (a one-entry cache: the
// stream resolves to one variant per family).
struct Tolerance {
  std::string id;
  double tol = 1e-9;
  double of(const std::string& resolved) {
    if (resolved != id) {
      id = resolved;
      const engine::VariantInfo* v = engine::Registry::instance().find(resolved);
      tol = v != nullptr ? v->tolerance : 1e-9;
    }
    return tol;
  }
};

// CPU placement: the generator owns one core and everything the server
// starts (dispatcher, pool workers, the OpenMP teams the kernels fork)
// shares the others. Threads inherit the affinity of the thread that
// creates them, so the main thread narrows itself to the server's cores
// while it builds a stream, and moves to the generator's core to offer
// load. The destructor restores the original mask.
class Placement {
 public:
  Placement() {
    have_ = sched_getaffinity(0, sizeof(all_), &all_) == 0 && CPU_COUNT(&all_) >= 2;
    if (!have_) return;
    CPU_ZERO(&server_);
    CPU_ZERO(&generator_);
    int first = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &all_)) continue;
      if (first < 0) first = c;
      CPU_SET(c, c == first ? &generator_ : &server_);
    }
  }
  ~Placement() { apply(all_); }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  void server_side() { apply(server_); }
  void generator_side() { apply(generator_); }

 private:
  void apply(const cpu_set_t& set) {
    if (have_) pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  bool have_ = false;
  cpu_set_t all_{}, server_{}, generator_{};
};

enum Kind : std::uint8_t { kQuote = 0, kLattice = 1 };

struct Rec {
  std::uint64_t due_ns = 0, submit_ns = 0, done_ns = 0;
  std::uint64_t request_id = 0;
  float queue_s = 0.f, total_s = 0.f;
  std::uint16_t batch = 0;
  Kind kind = kQuote;
  Outcome outcome = Outcome::kOk;
  bool submitted = false;
  bool degraded = false;
};

struct PhaseResult {
  double offered = 0.0, achieved = 0.0;
  std::vector<double> lat_s;  // sorted; a request that did not end kOk is +inf
  std::vector<double> lag_s;  // sorted
  std::vector<double> queue_s, service_s;  // sorted, completed requests
  double batch_mean = 0.0;
  // Per-window p50 and p99 of the latency (windows by due time), and
  // whether the window was free of steal time.
  std::vector<double> win_p50, win_p99;
  std::vector<bool> win_keep;
  double steal_frac = 0.0;
  double opts_ok = 0.0;  // options priced correctly
  Ledger ledger;
  std::uint64_t degraded = 0, overflow = 0;
  std::vector<std::string> wrong;

  double p50() const { return median_kept(win_p50, win_keep); }
  double p99() const { return median_kept(win_p99, win_keep); }
  std::size_t set_aside() const {
    return static_cast<std::size_t>(std::count(win_keep.begin(), win_keep.end(), false));
  }
  LadderStep step() const { return {offered, achieved, p99()}; }
};

struct PhaseState {
  std::vector<Rec> rec;
  Tolerance bs_tol, bin_tol;
  std::vector<std::string> wrong;
};

void harvest(Stream& s, Slot& sl, Kind kind, PhaseState& st) {
  Rec& r = st.rec[static_cast<std::size_t>(sl.req)];
  const engine::PricingResult& res = sl.job.result;
  r.done_ns = sl.done_ns;
  r.queue_s = static_cast<float>(sl.job.queue_seconds);
  r.total_s = static_cast<float>(sl.job.total_seconds);
  r.batch = static_cast<std::uint16_t>(std::min<std::size_t>(sl.job.batch_size, 65535));
  r.request_id = res.request_id;
  r.degraded = res.status.degraded();
  const robust::StatusCode code = res.status.code();
  const bool failed = !res.status.ok();
  bool wrong = false;
  if (!failed && kind == kQuote) {
    const BsTemplate& bt = s.bs_tpl[sl.tpl];
    const double tol = st.bs_tol.of(res.resolved_id);
    for (std::size_t k = 0; k < kBsOptions && !wrong; ++k) {
      const auto& o = sl.bs.options[k];
      wrong = rel_err(o.call, bt.call[k]) > tol || rel_err(o.put, bt.put[k]) > tol;
    }
  } else if (!failed) {
    const BinTemplate& bt = s.bin_tpl[sl.tpl];
    const double tol = st.bin_tol.of(res.resolved_id);
    wrong = res.values.size() != bt.ref.size();
    for (std::size_t k = 0; k < bt.ref.size() && !wrong; ++k) {
      wrong = rel_err(res.values[k], bt.ref[k]) > tol;
    }
  }
  if (wrong && st.wrong.size() < 4) {
    st.wrong.push_back("quote_stream: " + res.resolved_id + " request " +
                       std::to_string(sl.req) + " disagrees with its reference");
  }
  r.outcome = classify(code == robust::StatusCode::kResourceExhausted,
                       code == robust::StatusCode::kDeadlineExceeded, failed, wrong);
  sl.req = -1;
}

// Offer one phase: Poisson arrivals at `rate` for `seconds`, latency
// percentiles per `window_s` of due time.
PhaseResult run_phase(Stream& s, double rate, double seconds, double window_s,
                      std::uint64_t seed, Tracer* tr) {
  const std::vector<double> due = poisson_schedule(seed, rate, seconds);
  const std::size_t n = due.size();
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::vector<Kind> kind(n);
  std::vector<std::uint32_t> tpl(n);
  for (std::size_t i = 0; i < n; ++i) {
    kind[i] = u01(rng) < kBinShare ? kLattice : kQuote;
    const std::size_t m = kind[i] == kQuote ? s.bs_tpl.size() : s.bin_tpl.size();
    tpl[i] = static_cast<std::uint32_t>(std::min<std::size_t>(m - 1, u01(rng) * m));
  }

  PhaseState st;
  st.rec.resize(n);
  std::size_t next_bs = 0, next_bin = 0;
  std::uint64_t overflow = 0;

  const std::uint64_t t0 = now_ns() + 200000;  // first due time 0.2 ms from now
  for (std::size_t i = 0; i < n; ++i) {
    Rec& r = st.rec[i];
    r.kind = kind[i];
    r.due_ns = t0 + static_cast<std::uint64_t>(due[i] * 1e9);
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= r.due_ns) break;
      const std::uint64_t left = r.due_ns - now;
      if (left > 300000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200000));
      } else {
        std::this_thread::yield();
      }
    }
    Slot& sl = kind[i] == kQuote ? s.bs[next_bs++ % s.nbs] : s.bin[next_bin++ % s.nbin];
    if (sl.req >= 0) {
      if (!sl.job.done()) {
        // Every slot of the ring is still in flight: the server is so far
        // behind that the request cannot even be offered.
        ++overflow;
        r.outcome = Outcome::kShed;
        continue;
      }
      harvest(s, sl, kind[i], st);
    }
    engine::PricingRequest& q = sl.job.request;
    q.scratch.reset();  // a fresh request: in-place inputs must not hit a cached negotiation
    sl.tpl = tpl[i];
    if (kind[i] == kQuote) {
      const BsTemplate& bt = s.bs_tpl[tpl[i]];
      for (std::size_t k = 0; k < kBsOptions; ++k) {
        core::BsOptionAos o = bt.opt[k];
        o.call = o.put = std::numeric_limits<double>::quiet_NaN();
        sl.bs.options[k] = o;
      }
      sl.bs.vol = kUnderlyings[bt.u].vol;
      q.portfolio = core::view_of(sl.bs);
    } else {
      q.portfolio =
          core::view_of(std::span<const core::OptionSpec>(s.bin_tpl[tpl[i]].specs));
    }
    sl.req = static_cast<std::int64_t>(i);
    r.submit_ns = now_ns();
    if (s.server.submit(sl.job).ok()) {
      r.submitted = true;
    } else {
      sl.req = -1;
      r.outcome = Outcome::kShed;
    }
  }
  for (std::size_t i = 0; i < s.nbs; ++i) {
    if (s.bs[i].req >= 0) {
      s.server.wait(s.bs[i].job);
      harvest(s, s.bs[i], kQuote, st);
    }
  }
  for (std::size_t i = 0; i < s.nbin; ++i) {
    if (s.bin[i].req >= 0) {
      s.server.wait(s.bin[i].job);
      harvest(s, s.bin[i], kLattice, st);
    }
  }

  PhaseResult pr;
  pr.overflow = overflow;
  pr.wrong = std::move(st.wrong);
  pr.offered = seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
  std::uint64_t last_done = t0;
  double batch_sum = 0.0;
  std::size_t completed = 0, ok = 0;
  std::vector<double> due_s, submit_s;
  pr.lat_s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& r = st.rec[i];
    pr.ledger.record(r.outcome);
    if (r.degraded) ++pr.degraded;
    if (!r.submitted) {
      pr.lat_s.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    due_s.push_back(1e-9 * static_cast<double>(r.due_ns - t0));
    submit_s.push_back(1e-9 * static_cast<double>(r.submit_ns - t0));
    ++completed;
    last_done = std::max(last_done, r.done_ns);
    pr.queue_s.push_back(r.queue_s);
    pr.service_s.push_back(static_cast<double>(r.total_s) - static_cast<double>(r.queue_s));
    batch_sum += r.batch;
    if (r.outcome == Outcome::kOk) {
      ++ok;
      pr.opts_ok += r.kind == kQuote ? kBsOptions : kBinOptions;
      pr.lat_s.push_back(1e-9 * static_cast<double>(r.done_ns - r.due_ns));
    } else {
      pr.lat_s.push_back(std::numeric_limits<double>::infinity());
    }
    if (tr != nullptr && tr->on()) {
      const std::uint64_t dispatch_ns = r.submit_ns + static_cast<std::uint64_t>(r.queue_s * 1e9);
      const std::int32_t root = tr->add("bench.request", r.due_ns, r.done_ns, -1, r.request_id);
      tr->add("bench.gen_lag", r.due_ns, r.submit_ns, root, r.request_id);
      tr->add("serve.queue", r.submit_ns, dispatch_ns, root, r.request_id);
      tr->add("serve.service", dispatch_ns, r.done_ns, root, r.request_id);
    }
  }
  const double wall = std::max(seconds, 1e-9 * static_cast<double>(last_done - t0));
  pr.achieved = static_cast<double>(ok) / wall;
  pr.opts_ok /= wall;
  pr.batch_mean = completed ? batch_sum / static_cast<double>(completed) : 0.0;
  // For the reported percentiles a request that did not end kOk counts as
  // having waited the whole phase (finite, so a bad phase still reads as
  // a number).
  std::vector<double> capped = pr.lat_s;
  for (double& v : capped) v = std::min(v, seconds);
  pr.win_p50 = window_percentiles(due, capped, window_s, 50.0, 100);
  pr.win_p99 = window_percentiles(due, capped, window_s, 99.0, 100);
  const StealMonitor& sm = steal_monitor();
  std::vector<double> stolen;
  for (std::size_t w = 0; w < pr.win_p50.size(); ++w) {
    const auto at = [&](std::size_t k) {
      return t0 + static_cast<std::uint64_t>(static_cast<double>(k) * window_s * 1e9);
    };
    stolen.push_back(sm.frac(at(w), at(w + 1)));
  }
  pr.win_keep = keep_least_stolen(stolen, StealMonitor::kMaxStealFrac);
  pr.steal_frac = sm.frac(t0, last_done);
  std::sort(pr.lat_s.begin(), pr.lat_s.end());
  pr.lag_s = generator_lag(due_s, submit_s);
  std::sort(pr.queue_s.begin(), pr.queue_s.end());
  std::sort(pr.service_s.begin(), pr.service_s.end());
  return pr;
}

double ms(double s) { return 1e3 * s; }
double us(double s) { return 1e6 * s; }

}  // namespace

void probe_serve_layers(const Options& o, RunResult& out, Tracer& tr) {
  Options p = o;
  p.trace = true;
  p.seconds = 0.35 * o.seconds;  // light and heavy phases of about a tenth of the run each
  RunResult r = run_quote_stream(p, tr);
  for (const auto& [name, m] : r.metrics) {
    if (name.rfind("serve.", 0) == 0 || name.rfind("resilience.", 0) == 0 ||
        name == "engine.small_call_us" || name == "bench.gen_lag_us.p99") {
      out.metrics[name] = m;
    }
  }
  for (const auto& [k, v] : r.info) out.info["serve_probe." + k] = v;
  for (const auto& [k, v] : r.info_num) out.info_num["serve_probe." + k] = v;
  for (const std::string& w : r.wrong) out.wrong.push_back(w);
}

RunResult run_quote_stream(const Options& o, Tracer& tr) {
  RunResult out;
  const int nproc = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  const int participants = nproc - 1;
  const std::size_t per_underlying = o.smoke ? 4 : 16;
  const std::size_t nbin_tpl = o.smoke ? 8 : 32;
  const std::size_t bs_slots = o.smoke ? 256 : 8192;
  const std::size_t bin_slots = o.smoke ? 64 : 1024;
  const int setups = o.smoke ? 1 : 3;

  // Set-up, several times from cold; the last one is measured.
  Placement place;
  std::unique_ptr<Stream> s;
  std::vector<double> setup_s, race_s;
  for (int k = 0; k < setups; ++k) {
    place.server_side();
    s.reset();
    tune::PlanCache::instance().clear();
    const double t0 = now_s();
    s = std::make_unique<Stream>(participants, bs_slots, bin_slots);
    build_templates(*s, o.seed, per_underlying, nbin_tpl);
    // Cold races for both request shapes: on this engine, and on
    // Engine::shared(), which Engine::fusable resolves against when the
    // coalescer compares two auto requests.
    engine::PricingRequest bsq = s->bs[0].job.request;
    s->bs[0].bs.vol = kUnderlyings[0].vol;
    for (std::size_t j = 0; j < kBsOptions; ++j) s->bs[0].bs.options[j] = s->bs_tpl[0].opt[j];
    bsq.portfolio = core::view_of(s->bs[0].bs);
    engine::PricingRequest binq = s->bin[0].job.request;
    binq.portfolio = core::view_of(std::span<const core::OptionSpec>(s->bin_tpl[0].specs));
    double race = resolve_cold(s->eng, bsq, "bs", "quote", out);
    race += resolve_cold(s->eng, binq, "binomial", "lattice", out);
    race += resolve_cold(engine::Engine::shared(), bsq, "bs", "quote.fusable", out);
    race += resolve_cold(engine::Engine::shared(), binq, "binomial", "lattice.fusable", out);
    setup_s.push_back(now_s() - t0);
    race_s.push_back(race);
  }
  {
    engine::PricingRequest binq = s->bin[0].job.request;
    binq.portfolio = core::view_of(std::span<const core::OptionSpec>(s->bin_tpl[0].specs));
    const engine::PricingResult r = s->eng.price(binq);
    build_references(*s, r.resolved_id);
  }
  place.generator_side();
  out.info_num["participants"] = participants;
  out.info_num["light_rps"] = o.light_rps;
  out.info_num["heavy_rps"] = o.heavy_rps;

  const double S = o.seconds;
  const double phase_s = 0.3 * S;
  const double step_s = 0.04 * S;
  const double window_s = phase_s / 10;
  std::uint64_t phase_seed = o.seed * 1000;

  // Warm-up at the light rate: slot memory, server buffers, first groups.
  run_phase(*s, o.light_rps, std::min(0.5, 0.05 * S), 0.1, ++phase_seed, nullptr);

  PhaseResult light, heavy;
  std::vector<double> light_untraced_p50, light_traced_p50;
  obs::Counter& reroutes = obs::counter("engine.tune.breaker_reroute");
  const std::uint64_t reroutes0 = reroutes.value();
  const serve::Server::Stats st0 = s->server.stats();
  int brownout_max = 0;

  if (!o.trace) {
    light = run_phase(*s, o.light_rps, phase_s, window_s, ++phase_seed, nullptr);
    brownout_max = std::max(brownout_max, s->server.stats().brownout_level);
    heavy = run_phase(*s, o.heavy_rps, phase_s, window_s, ++phase_seed, nullptr);
    brownout_max = std::max(brownout_max, s->server.stats().brownout_level);

    // The ladder, after the measured phases because its top steps overload
    // the server on purpose: climb from 80% of the frozen maximum (heavy is
    // 70% of it) until two steps in a row miss; descend when none passes.
    const double start = 0.8 * o.heavy_rps / 0.7;
    std::vector<LadderStep> ladder;
    auto climb = [&](const std::vector<double>& rates, auto done) {
      for (const double rate : rates) {
        if (done()) break;
        const PhaseResult pr = run_phase(*s, rate, step_s, step_s / 4, ++phase_seed, nullptr);
        ladder.push_back(pr.step());
        for (const std::string& w : pr.wrong) out.wrong.push_back(w);
      }
    };
    climb(ladder_rates(start, kLadderRatio, kLadderMaxSteps),
          [&] { return ladder_done(ladder, 2, kSloS, kAchievedFrac); });
    climb(ladder_rates(start / kLadderRatio, 1.0 / kLadderRatio, kLadderMaxSteps),
          [&] { return select_max_at_slo(ladder, kSloS, kAchievedFrac) >= 0; });
    const int best = select_max_at_slo(ladder, kSloS, kAchievedFrac);
    std::string steps;
    for (const LadderStep& st : ladder) {
      steps += (steps.empty() ? "" : " ") + std::to_string(static_cast<long>(st.offered)) + ":" +
               (std::isfinite(st.p99_s) ? std::to_string(static_cast<long>(us(st.p99_s))) + "us"
                                        : std::string("failed"));
    }
    out.info["ladder_offered_rps:p99"] = steps;
    out.info_num["max_rps_at_slo"] =
        best >= 0 ? ladder[static_cast<std::size_t>(best)].achieved : 0.0;
    out.info_num["max_rps_at_slo.offered"] =
        best >= 0 ? ladder[static_cast<std::size_t>(best)].offered : 0.0;

    // Capacity: offer twice the frozen maximum and count what completes.
    // The p99 of the ladder sits near the 1 ms limit over a wide range of
    // rates, so the ladder's answer moves with every stall; the completion
    // rate under overload does not.
    const PhaseResult sat =
        run_phase(*s, 2.0 * o.heavy_rps / 0.7, step_s, step_s, ++phase_seed, nullptr);
    for (const std::string& w : sat.wrong) out.wrong.push_back(w);
    out.set("opts_per_s", sat.opts_ok, "1/s");
    out.info_num["capacity_rps"] = sat.achieved;
  } else {
    // Traced: the light phase alternates untraced and traced quarters (the
    // difference is the tracing overhead); heavy runs traced.
    const double quarter = phase_s / 4.0;
    for (int k = 0; k < 4; ++k) {
      const bool traced = (k % 2) == 1;
      tr.set_on(traced);
      PhaseResult pr = run_phase(*s, o.light_rps, quarter, window_s, ++phase_seed, &tr);
      (traced ? light_traced_p50 : light_untraced_p50).push_back(pr.p50());
      if (traced) light = std::move(pr);
      else
        for (const std::string& w : pr.wrong) out.wrong.push_back(w);
    }
    brownout_max = std::max(brownout_max, s->server.stats().brownout_level);
    heavy = run_phase(*s, o.heavy_rps, phase_s, window_s, ++phase_seed, &tr);
  }
  brownout_max = std::max(brownout_max, s->server.stats().brownout_level);
  const serve::Server::Stats st1 = s->server.stats();

  for (const PhaseResult* p : {&light, &heavy}) {
    out.ledger.merge(p->ledger);
    for (const std::string& w : p->wrong) out.wrong.push_back(w);
  }
  out.info["p50_ms.percentile"] = "light phase: median over " +
                                  std::to_string(light.win_p50.size()) +
                                  " windows of the per-window p50, n=" +
                                  std::to_string(light.lat_s.size()) + " requests";
  out.info["tail_ms.percentile"] = "heavy phase: median over " +
                                   std::to_string(heavy.win_p99.size()) +
                                   " windows of the per-window p99, n=" +
                                   std::to_string(heavy.lat_s.size()) + " requests";
  out.info_num["light_p50_ms"] = ms(light.p50());
  out.info_num["light_p99_ms"] = ms(light.p99());
  out.info_num["heavy_p50_ms"] = ms(heavy.p50());
  out.info_num["heavy_p99_ms"] = ms(heavy.p99());
  out.info_num["heavy_p99_ms.pooled"] = ms(percentile(heavy.lat_s, 99.0));
  out.info_num["light.steal_frac"] = light.steal_frac;
  out.info_num["heavy.steal_frac"] = heavy.steal_frac;
  out.info_num["light.windows_set_aside"] = static_cast<double>(light.set_aside());
  out.info_num["heavy.windows_set_aside"] = static_cast<double>(heavy.set_aside());
  out.info_num["bench_ring_overflow"] = static_cast<double>(light.overflow + heavy.overflow);

  std::vector<double> lag = light.lag_s;
  lag.insert(lag.end(), heavy.lag_s.begin(), heavy.lag_s.end());
  std::sort(lag.begin(), lag.end());
  const double lag_p99 = percentile(lag, 99.0);
  out.info_num["gen_lag_us.p99"] = us(lag_p99);
  // Above this lag the generator, not the server, set the latencies: the
  // run is marked invalid in its fingerprint (its outputs may still be
  // correct).
  constexpr double kMaxLagS = 200e-6;
  out.info["valid"] = lag_p99 <= kMaxLagS ? "yes" : "no: generator lag p99 above 200 us";

  out.set("setup_s", median(setup_s), "s");
  out.set("ok_frac", 1.0 - out.ledger.error_rate(), "1");
  out.set("p50_ms", ms(light.p50()), "ms");
  out.set("tail_ms", ms(heavy.p99()), "ms");

  if (o.trace) {
    out.set("serve.queue_wait_us.p50", us(percentile(heavy.queue_s, 50.0)), "us");
    out.set("serve.queue_wait_us.p99", us(percentile(heavy.queue_s, 99.0)), "us");
    out.set("serve.batch_members.mean", heavy.batch_mean, "count");
    const double completed = static_cast<double>(st1.completed - st0.completed);
    out.set("serve.fused_frac",
            completed > 0 ? static_cast<double>(st1.coalesced - st0.coalesced) / completed : 0.0,
            "1");
    out.set("serve.service_us.p50", us(percentile(light.service_s, 50.0)), "us");
    out.set("serve.shed",
            static_cast<double>((st1.shed_queue - st0.shed_queue) +
                                (st1.shed_bytes - st0.shed_bytes) +
                                (st1.expired_in_queue - st0.expired_in_queue)),
            "count");
    out.set("resilience.retries", static_cast<double>(st1.retries - st0.retries), "count");
    out.set("resilience.brownout_level_max", brownout_max, "count");
    out.set("resilience.breaker_reroutes", static_cast<double>(reroutes.value() - reroutes0),
            "count");
    out.set("robust.degraded", static_cast<double>(light.degraded + heavy.degraded), "count");
    out.set("bench.gen_lag_us.p99", us(lag_p99), "us");
    out.set("tune.race_s", median(race_s), "s");

    // Tight-loop costs of the two small-call paths the stream rides on.
    Slot& sl = s->bs[0];
    sl.req = -1;
    engine::PricingRequest q = sl.job.request;
    q.scratch.reset();
    q.portfolio = core::view_of(sl.bs);
    out.set("tune.resolve_hit_us", us(resolve_hit_seconds(s->eng, q, "bs", 2000)), "us");
    engine::PricingResult res;
    std::vector<double> call_s;
    for (int k = 0; k < 2000; ++k) {
      const double t0 = now_s();
      s->eng.price(q, res);
      call_s.push_back(now_s() - t0);
    }
    out.set("engine.small_call_us", us(median(call_s)), "us");
    const double u = median(light_untraced_p50), t = median(light_traced_p50);
    out.set("obs.trace_overhead_frac", u > 0 ? t / u - 1.0 : 0.0, "1");
  }
  return out;
}

}  // namespace perfbench
