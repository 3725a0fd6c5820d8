#include "finbench/tune/tuner.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "finbench/arch/timing.hpp"
#include "finbench/core/option.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/resilience/breaker.hpp"

namespace finbench::tune {

namespace {

// Configurations within this factor of the best rate are considered tied;
// the one with the lower measured imbalance wins the tie.
constexpr double kTieBand = 0.97;

// A pinned configuration losing the unconstrained best by more than this
// factor flips RaceReport::pinned_losing.
constexpr double kPinnedLossFactor = 1.10;

// Delta-sampler over an obs::Stat: mean of the observations recorded
// between construction and delta_mean() — how the race attributes
// parallel.engine.<schedule>.imbalance samples to one configuration.
class StatProbe {
 public:
  explicit StatProbe(const char* name) : stat_(&obs::stat(name)) {
    const obs::Stat::Summary s = stat_->summary();
    sum0_ = s.sum;
    count0_ = s.count;
  }

  double delta_mean() const {
    const obs::Stat::Summary s = stat_->summary();
    if (s.count <= count0_) return 0.0;
    return (s.sum - sum0_) / static_cast<double>(s.count - count0_);
  }

 private:
  obs::Stat* stat_;
  double sum0_ = 0.0;
  std::uint64_t count0_ = 0;
};

bool satisfies_pins(const TuneKey& key, const CandidateResult& c) {
  if (key.pinned_schedule >= 0 &&
      static_cast<int>(c.schedule) != key.pinned_schedule) {
    return false;
  }
  // chunks_per_thread only matters under dynamic scheduling; a static
  // configuration trivially honors a chunk pin.
  if (key.pinned_chunks > 0 && c.schedule == arch::Schedule::kDynamic &&
      c.chunks_per_thread != key.pinned_chunks) {
    return false;
  }
  if (key.tasks >= 0 && c.tasks != (key.tasks == 1)) return false;
  return true;
}

// Families whose variants can decompose options into intra-option tasks —
// the only ones where racing tasks on vs. off can change the answer.
bool family_has_tasks(std::string_view family) {
  return family == "binomial" || family == "cn" || family == "mc";
}

// Best candidate by rate among `cands` passing `pred`, with the imbalance
// tie-break: a config within kTieBand of the best whose measured imbalance
// is lower replaces it. Returns nullptr when nothing passes.
template <class Pred>
const CandidateResult* pick_best(const std::vector<CandidateResult>& cands, Pred pred) {
  const CandidateResult* best = nullptr;
  for (const CandidateResult& c : cands) {
    if (!c.ok || !pred(c)) continue;
    if (best == nullptr || c.items_per_sec > best->items_per_sec) best = &c;
  }
  if (best == nullptr) return nullptr;
  for (const CandidateResult& c : cands) {
    if (!c.ok || !pred(c) || &c == best) continue;
    if (c.items_per_sec >= kTieBand * best->items_per_sec && c.imbalance > 0.0 &&
        (best->imbalance <= 0.0 || c.imbalance < best->imbalance)) {
      best = &c;
    }
  }
  return best;
}

}  // namespace

TuneKey key_for(const engine::PricingRequest& req, std::string_view family, int threads) {
  TuneKey k;
  k.family = std::string(family);
  k.layout = req.portfolio.layout;
  k.size_bucket = size_bucket_of(req.portfolio.size());
  k.threads = threads;
  k.steps = req.steps;
  k.steps_per_year = req.steps_per_year;
  k.npath = req.npath;
  k.bridge_depth = req.bridge_depth;
  k.cn_num_prices = req.cn_num_prices;
  k.pinned_schedule = req.pin_schedule ? static_cast<int>(req.schedule) : -1;
  k.pinned_chunks = req.pin_chunks ? req.chunks_per_thread : 0;
  k.tasks = static_cast<int>(req.tasks);
  if (req.portfolio.layout == core::Layout::kSpecs) {
    for (const core::OptionSpec& s : req.portfolio.specs) {
      if (s.style == core::ExerciseStyle::kAmerican) {
        k.american = true;
        break;
      }
    }
  }
  return k;
}

RaceReport race(const engine::Engine& eng, const engine::PricingRequest& req,
                const TuneKey& key, const RaceOptions& opt) {
  RaceReport rep;
  rep.key = key;
  arch::WallTimer race_timer;

  // Imbalance telemetry only records when parallel timing is on; the race
  // wants the data (it is the tie-breaker), so enable it for the duration
  // and restore the caller's setting after.
  const bool timing_was_on = obs::parallel_timing_enabled();
  if (opt.imbalance && !timing_was_on) obs::enable_parallel_timing(true);

  // Candidates: every registry variant of the family whose layout the
  // workload matches or can negotiate to, minus european_only variants
  // when the workload carries American exercise.
  std::vector<const engine::VariantInfo*> candidates;
  resilience::BreakerRegistry& brk = resilience::BreakerRegistry::instance();
  for (const engine::VariantInfo* v : engine::Registry::instance().all()) {
    if (v->kernel != key.family) continue;
    const core::Layout from = req.portfolio.layout;
    if (v->layout != from && !core::convertible(from, v->layout)) continue;
    if (key.american && v->european_only) continue;
    // A tripped breaker takes the variant out of the race entirely —
    // probing a sick variant would both waste the race budget and risk
    // crowning it. available() is non-consuming, so no half-open probe is
    // burnt here.
    if (brk.enabled() && !brk.available(v->id)) {
      ++rep.breaker_excluded;
      continue;
    }
    candidates.push_back(v);
  }

  // One configuration probe through the real engine path: warm-up (builds
  // the candidate's own Scratch — negotiation, streams, pools) plus
  // best-of-reps on PricingResult::seconds.
  auto probe = [&](const engine::VariantInfo* v, arch::Schedule sched, int cpt,
                   bool tasks) -> CandidateResult {
    CandidateResult c;
    c.id = v->id;
    c.schedule = sched;
    c.chunks_per_thread = cpt;
    c.tasks = tasks;
    engine::PricingRequest r = req;
    r.kernel_id = v->id;
    r.schedule = sched;
    r.chunks_per_thread = cpt;
    r.tasks = tasks ? engine::TaskMode::kOn : engine::TaskMode::kOff;
    r.pin_schedule = false;
    r.pin_chunks = false;
    // The race is a warm-up, not the priced run: never inject faults into
    // it, and never let the caller's deadline abort candidate timing.
    r.faults = {};
    r.deadline_seconds = 0.0;
    r.cancel = nullptr;
    r.scratch.reset();  // candidate-private caches, dropped after the race
    const char* site = sched == arch::Schedule::kDynamic
                           ? "parallel.engine.dynamic.imbalance"
                           : "parallel.engine.static.imbalance";
    StatProbe imbalance(site);
    engine::PricingResult res;
    try {
      eng.price(r, res);  // warm-up
      if (!res.status.ok()) {
        c.note = res.status.to_string();
        return c;
      }
      double best = res.seconds;
      for (int i = 1; i < std::max(1, opt.reps); ++i) {
        eng.price(r, res);
        if (!res.status.ok()) {
          c.note = res.status.to_string();
          return c;
        }
        best = std::min(best, res.seconds);
      }
      if (best > 0.0 && res.items > 0) {
        c.items_per_sec = static_cast<double>(res.items) / best;
        c.ok = true;
      } else {
        c.note = "no measurable rate";
      }
    } catch (const std::exception& e) {
      c.note = e.what();
    } catch (...) {
      c.note = "non-std exception during race";
    }
    c.imbalance = imbalance.delta_mean();
    return c;
  };

  // Phase 1 — race the variants at the key's (possibly pinned) seed
  // configuration; unpinned keys seed with the PricingRequest defaults.
  const arch::Schedule seed_sched = key.pinned_schedule >= 0
                                        ? static_cast<arch::Schedule>(key.pinned_schedule)
                                        : arch::Schedule::kDynamic;
  const int seed_cpt = key.pinned_chunks > 0 ? key.pinned_chunks : 8;
  const bool seed_tasks = key.tasks == 1;
  for (const engine::VariantInfo* v : candidates) {
    rep.candidates.push_back(probe(v, seed_sched, seed_cpt, seed_tasks));
  }

  const CandidateResult* phase1 =
      pick_best(rep.candidates, [](const CandidateResult&) { return true; });
  if (phase1 == nullptr) {
    if (opt.imbalance && !timing_was_on) obs::enable_parallel_timing(false);
    rep.race_seconds = race_timer.seconds();
    return rep;  // winner stays !valid()
  }

  // Phase 2 — schedule / chunks_per_thread grid on the winning variant.
  // Only the cost-weighted kSpecs partition is worth racing. Black–Scholes
  // chunks are cache-sized (the knobs only change mid-size books) and
  // Brownian path groups cost the same: both keep the seed configuration.
  const engine::VariantInfo* wv = engine::Registry::instance().find(phase1->id);
  if (wv != nullptr && wv->layout == core::Layout::kSpecs &&
      req.portfolio.size() >= 2) {
    std::vector<std::pair<arch::Schedule, int>> grid = {
        {arch::Schedule::kDynamic, 4},
        {arch::Schedule::kDynamic, 8},
        {arch::Schedule::kDynamic, 16},
        {arch::Schedule::kStatic, seed_cpt},
    };
    if (key.pinned_chunks > 0) {
      grid.emplace_back(arch::Schedule::kDynamic, key.pinned_chunks);
    }
    for (const auto& [sched, cpt] : grid) {
      const bool already =
          std::any_of(rep.candidates.begin(), rep.candidates.end(),
                      [&, s = sched, c = cpt](const CandidateResult& r) {
                        return r.id == wv->id && r.schedule == s && r.tasks == seed_tasks &&
                               (s == arch::Schedule::kStatic || r.chunks_per_thread == c);
                      });
      if (!already) rep.candidates.push_back(probe(wv, sched, cpt, seed_tasks));
    }
  }

  // Phase 3 — race the intra-option task mode on the winning configuration
  // when the caller left it to auto. Only lattice/path families consume the
  // knob, and a single-participant pool has nobody to steal tasks.
  if (key.tasks < 0 && key.threads > 1 && family_has_tasks(key.family)) {
    const CandidateResult* sofar =
        pick_best(rep.candidates, [](const CandidateResult&) { return true; });
    if (sofar != nullptr) {
      const engine::VariantInfo* tv = engine::Registry::instance().find(sofar->id);
      if (tv != nullptr) {
        rep.candidates.push_back(
            probe(tv, sofar->schedule, sofar->chunks_per_thread, !sofar->tasks));
      }
    }
  }

  if (opt.imbalance && !timing_was_on) obs::enable_parallel_timing(false);

  // Winner: best configuration honoring the pins. The unconstrained best
  // across the whole grid prices what the pins cost.
  const bool pinned = key.pinned_schedule >= 0 || key.pinned_chunks > 0 || key.tasks >= 0;
  const CandidateResult* constrained =
      pick_best(rep.candidates, [&](const CandidateResult& c) { return satisfies_pins(key, c); });
  const CandidateResult* unconstrained =
      pick_best(rep.candidates, [](const CandidateResult&) { return true; });
  if (unconstrained != nullptr) rep.best_items_per_sec = unconstrained->items_per_sec;
  const CandidateResult* winner = constrained != nullptr ? constrained : unconstrained;
  if (winner != nullptr) {
    rep.winner.variant_id = winner->id;
    rep.winner.schedule = winner->schedule;
    rep.winner.chunks_per_thread = winner->chunks_per_thread;
    rep.winner.tasks = winner->tasks;
    rep.winner.items_per_sec = winner->items_per_sec;
    rep.winner.imbalance = winner->imbalance;
    if (pinned && constrained != nullptr && unconstrained != nullptr &&
        unconstrained->items_per_sec > kPinnedLossFactor * constrained->items_per_sec) {
      rep.pinned_losing = true;
    }
  }
  rep.race_seconds = race_timer.seconds();
  return rep;
}

namespace {

// Mirror of the engine's fallback chain walk (fallback_id, else
// reference_id, null at the chain end / self-reference), hop-capped so a
// mis-registered cycle cannot spin.
const engine::VariantInfo* chain_next(const engine::VariantInfo& v) {
  const std::string& next = !v.fallback_id.empty() ? v.fallback_id : v.reference_id;
  if (next.empty() || next == v.id) return nullptr;
  return engine::Registry::instance().find(next);
}

// First fallback-chain link of `from` that is runnable for this key and
// whose breaker admits traffic. allow() (consuming) is correct here: a
// half-open substitute is probing too.
const engine::VariantInfo* first_allowed_fallback(const engine::VariantInfo& from,
                                                  const engine::PricingRequest& req,
                                                  const TuneKey& key,
                                                  resilience::BreakerRegistry& brk) {
  const engine::VariantInfo* fb = chain_next(from);
  for (int hops = 0; fb != nullptr && hops < 8; ++hops, fb = chain_next(*fb)) {
    if (key.american && fb->european_only) continue;
    const core::Layout lay = req.portfolio.layout;
    if (fb->layout != lay && !core::convertible(lay, fb->layout)) continue;
    if (brk.allow(fb->id)) return fb;
  }
  return nullptr;
}

}  // namespace

Resolution resolve(const engine::Engine& eng, const engine::PricingRequest& req,
                   const TuneKey& key) {
  Resolution out;
  PlanCache& cache = PlanCache::instance();
  resilience::BreakerRegistry& brk = resilience::BreakerRegistry::instance();
  if (std::optional<DispatchPlan> p = cache.find(key)) {
    const engine::VariantInfo* v = engine::Registry::instance().find(p->variant_id);
    if (v != nullptr) {
      if (!brk.enabled() || brk.allow(p->variant_id)) {
        obs::counter("engine.tune.hit").add(1);
        out.plan = std::move(*p);
        out.hit = true;
        return out;
      }
      // The cached winner's breaker is open: substitute the first allowed
      // link of its fallback chain for this one pricing. The healthy plan
      // stays in the cache — the breaker owns recovery (half-open probes
      // come back through the allow() above), not the tuner. An exhausted
      // chain fails open to the winner: trying a sick variant beats
      // refusing to price at all.
      obs::counter("engine.tune.breaker_skipped").add(1);
      out.plan = std::move(*p);
      out.hit = true;
      out.substituted = true;
      if (const engine::VariantInfo* sub = first_allowed_fallback(*v, req, key, brk)) {
        out.plan.variant_id = sub->id;
      }
      return out;
    }
    // The cached plan names a variant this build does not ship (a stale
    // cache from another binary age): drop it and re-race rather than
    // mis-dispatch.
    cache.erase(key);
  }
  obs::counter("engine.tune.miss").add(1);
  RaceReport rep = race(eng, req, key);
  obs::counter("engine.tune.race").add(1);
  out.raced = true;
  if (rep.pinned_losing) obs::counter("engine.tune.pinned_losing").add(1);
  if (!rep.winner.valid()) return out;
  if (rep.breaker_excluded > 0) {
    // Breakers kept candidates out of this race: the winner is the best of
    // a degraded field. Use it now, but do not persist — the key re-races
    // once the breakers close, so the cache only ever records healthy-era
    // winners.
    out.substituted = true;
    out.plan = rep.winner;
    return out;
  }
  cache.put(key, rep);
  out.plan = rep.winner;
  return out;
}

}  // namespace finbench::tune
