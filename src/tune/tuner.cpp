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

// Delta-sampler over an obs::Stat: mean of the observations recorded
// between construction and delta_mean() — how the race attributes
// parallel.engine.dynamic.imbalance samples to one configuration.
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

// Families whose variants can decompose options into intra-option tasks —
// the only ones where racing tasks on vs. off can change the answer.
bool family_has_tasks(std::string_view family) {
  return family == "binomial" || family == "cn" || family == "mc";
}

// Best candidate by rate, with the imbalance tie-break: a config within
// kTieBand of the best whose measured imbalance is lower replaces it.
// Returns nullptr when no candidate priced cleanly.
const CandidateResult* pick_best(const std::vector<CandidateResult>& cands) {
  const CandidateResult* best = nullptr;
  for (const CandidateResult& c : cands) {
    if (!c.ok) continue;
    if (best == nullptr || c.items_per_sec > best->items_per_sec) best = &c;
  }
  if (best == nullptr) return nullptr;
  for (const CandidateResult& c : cands) {
    if (!c.ok || &c == best) continue;
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
  auto probe = [&](const engine::VariantInfo* v, int cpt, bool tasks) -> CandidateResult {
    CandidateResult c;
    c.id = v->id;
    c.chunks_per_thread = cpt;
    c.tasks = tasks;
    engine::PricingRequest r = req;
    r.kernel_id = v->id;
    r.chunks_per_thread = cpt;
    r.tasks = tasks ? engine::TaskMode::kOn : engine::TaskMode::kOff;
    // The race is a warm-up, not the priced run: never inject faults into
    // it, and never let the caller's deadline abort candidate timing.
    r.faults = {};
    r.deadline_seconds = 0.0;
    r.cancel = nullptr;
    r.scratch.reset();  // candidate-private caches, dropped after the race
    StatProbe imbalance("parallel.engine.dynamic.imbalance");
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

  // Phase 1 — race the variants at the PricingRequest defaults: 8 chunks
  // per participant, tasks off.
  constexpr int kSeedCpt = 8;
  for (const engine::VariantInfo* v : candidates) {
    rep.candidates.push_back(probe(v, kSeedCpt, false));
  }

  const CandidateResult* phase1 = pick_best(rep.candidates);
  if (phase1 == nullptr) {
    if (opt.imbalance && !timing_was_on) obs::enable_parallel_timing(false);
    rep.race_seconds = race_timer.seconds();
    return rep;  // winner stays !valid()
  }

  // Phase 2 — chunks_per_thread grid on the winning variant. Only the
  // cost-weighted kSpecs partition is worth racing. Black–Scholes chunks
  // are cache-sized (the knob only changes mid-size books) and Brownian
  // path groups cost the same: both keep the seed configuration. One
  // chunk per participant is the large-chunk end: depth-packed SIMD
  // lattices pack tighter in big chunks, and it wins shuffled mixed-depth
  // binomial books.
  const engine::VariantInfo* wv = engine::Registry::instance().find(phase1->id);
  if (wv != nullptr && wv->layout == core::Layout::kSpecs && req.portfolio.size() >= 2) {
    for (const int cpt : {1, 4, 16}) rep.candidates.push_back(probe(wv, cpt, false));
  }

  // Phase 3 — race the intra-option task mode on the winning configuration.
  // Only lattice/path families consume the knob, and a single-participant
  // pool has nobody to steal tasks.
  if (key.threads > 1 && family_has_tasks(key.family)) {
    const CandidateResult* sofar = pick_best(rep.candidates);
    const engine::VariantInfo* tv = engine::Registry::instance().find(sofar->id);
    if (tv != nullptr) {
      rep.candidates.push_back(probe(tv, sofar->chunks_per_thread, !sofar->tasks));
    }
  }

  if (opt.imbalance && !timing_was_on) obs::enable_parallel_timing(false);

  if (const CandidateResult* winner = pick_best(rep.candidates)) {
    rep.winner.variant_id = winner->id;
    rep.winner.chunks_per_thread = winner->chunks_per_thread;
    rep.winner.tasks = winner->tasks;
    rep.winner.items_per_sec = winner->items_per_sec;
    rep.winner.imbalance = winner->imbalance;
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
