// finbench::tune contract tests (docs/autotuning.md):
//
//   - intent parsing: "<family>.auto" with exactly one dot is an intent;
//     "bs.intermediate.auto" is a concrete variant (".auto" is its width)
//   - TuneKey: strict ordering, map round-trips
//   - PlanCache: put/find/explain/erase, file round-trip determinism
//     (save → load into a second cache → identical winner plans)
//   - corrupt-cache degradation: truncated / garbage / wrong-schema /
//     foreign-fingerprint files load as kDegraded with zero entries and
//     never throw; the engine still resolves (re-races) afterwards
//   - engine auto dispatch: first price races (engine.tune.race +1) and
//     stamps resolved_id/tuned; repetitions hit the scratch/plan cache
//     with the race count unchanged; auto outputs are BITWISE the outputs
//     of pricing the resolved id explicitly on a replica portfolio; the
//     request's own chunks_per_thread and task mode neither change the
//     key nor the execution of an auto id
//   - a European-only variant refuses an American book, and an auto plan
//     resolved on a European book re-resolves when its specs turn American
//   - a cached plan naming a variant this build does not ship re-races
//     once and is replaced, put directly or loaded from a v2 file
//   - the race: a tasks-on probe that spawned no task cannot win, and CN
//     races no task mode
//   - serve coalescing: two auto requests resolving to the same plan fuse
//     (coalesced == 2) and stay bitwise identical to an explicit solo run

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/serve/server.hpp"
#include "finbench/tune/tuner.hpp"

using namespace finbench;

namespace {

std::string temp_path(const char* name) { return testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text;
}

tune::RaceReport make_report(const tune::TuneKey& key, const std::string& variant) {
  tune::RaceReport rep;
  rep.key = key;
  rep.winner.variant_id = variant;
  rep.winner.chunks_per_thread = 4;
  rep.winner.tasks = true;
  rep.winner.items_per_sec = 1.25e7;
  rep.winner.imbalance = 1.5;
  rep.race_seconds = 0.25;
  tune::CandidateResult c;
  c.id = variant;
  c.chunks_per_thread = 4;
  c.tasks = true;
  c.items_per_sec = 1.25e7;
  c.ok = true;
  rep.candidates.push_back(c);
  c.id = "bs.advanced_vml.auto";
  c.ok = false;
  c.note = "kernel_error: it broke";
  rep.candidates.push_back(c);
  return rep;
}

tune::TuneKey make_key(int bucket = 10) {
  tune::TuneKey k;
  k.family = "bs";
  k.layout = core::Layout::kBsAos;
  k.size_bucket = bucket;
  k.threads = 4;
  k.steps = 1024;
  k.npath = 16384;
  k.bridge_depth = 6;
  k.cn_num_prices = 257;
  return k;
}

bool bitwise_equal_bs(const core::PortfolioView& a, const core::PortfolioView& b) {
  const auto& oa = a.aos.options;
  const auto& ob = b.aos.options;
  if (oa.size() != ob.size()) return false;
  for (std::size_t i = 0; i < oa.size(); ++i) {
    if (std::memcmp(&oa[i].call, &ob[i].call, sizeof(double)) != 0) return false;
    if (std::memcmp(&oa[i].put, &ob[i].put, sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace

// --- Intent-id parsing -------------------------------------------------------

TEST(TuneKeyParse, AutoIdIsFamilyDotAutoWithExactlyOneDot) {
  EXPECT_TRUE(tune::is_auto_id("bs.auto"));
  EXPECT_TRUE(tune::is_auto_id("blackscholes.auto"));
  EXPECT_TRUE(tune::is_auto_id("binomial.auto"));
  // Three-part concrete ids use ".auto" as a *width*, not an intent.
  EXPECT_FALSE(tune::is_auto_id("bs.intermediate.auto"));
  EXPECT_FALSE(tune::is_auto_id("binomial.advanced.auto"));
  EXPECT_FALSE(tune::is_auto_id(".auto"));
  EXPECT_FALSE(tune::is_auto_id("auto"));
  EXPECT_FALSE(tune::is_auto_id("bs.scalar"));
  EXPECT_FALSE(tune::is_auto_id(""));
}

TEST(TuneKeyParse, AutoFamilyCanonicalizesAliases) {
  EXPECT_EQ(tune::auto_family("bs.auto"), "bs");
  EXPECT_EQ(tune::auto_family("blackscholes.auto"), "bs");
  EXPECT_EQ(tune::auto_family("montecarlo.auto"), "mc");
  EXPECT_EQ(tune::auto_family("cranknicolson.auto"), "cn");
  EXPECT_EQ(tune::auto_family("brownian.auto"), "brownian");
  // Unknown family: an auto-shaped id that names nothing we ship.
  EXPECT_TRUE(tune::auto_family("foo.auto").empty());
  EXPECT_TRUE(tune::auto_family("bs.scalar").empty());
}

TEST(TuneKeyParse, SizeBucketIsFloorLog2) {
  EXPECT_EQ(tune::size_bucket_of(0), -1);
  EXPECT_EQ(tune::size_bucket_of(1), 0);
  EXPECT_EQ(tune::size_bucket_of(2), 1);
  EXPECT_EQ(tune::size_bucket_of(3), 1);
  EXPECT_EQ(tune::size_bucket_of(1024), 10);
  EXPECT_EQ(tune::size_bucket_of(1 << 18), 18);
  EXPECT_EQ(tune::size_bucket_of((1 << 18) + 1), 18);
}

TEST(TuneKeyParse, KeysOrderStrictlyAndPinsSeparate) {
  const tune::TuneKey a = make_key(10);
  tune::TuneKey b = make_key(11);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, make_key(10));

  std::map<tune::TuneKey, int> m;
  m[a] = 1;
  m[b] = 2;
  m[make_key(10)] = 3;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m[a], 3);
  EXPECT_FALSE(a.to_string().empty());
}

// --- PlanCache ---------------------------------------------------------------

TEST(PlanCache, PutFindExplainErase) {
  tune::PlanCache cache;  // memory-only
  const tune::TuneKey key = make_key();
  EXPECT_FALSE(cache.find(key).has_value());

  cache.put(key, make_report(key, "bs.intermediate.auto"));
  const auto plan = cache.find(key);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->variant_id, "bs.intermediate.auto");
  EXPECT_EQ(plan->chunks_per_thread, 4);
  EXPECT_TRUE(plan->tasks);

  const auto rep = cache.explain(key);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->candidates.size(), 2u);

  EXPECT_TRUE(cache.erase(key));
  EXPECT_FALSE(cache.erase(key));
  EXPECT_FALSE(cache.find(key).has_value());
}

TEST(PlanCache, FileRoundTripIsDeterministic) {
  const std::string path = temp_path("tune_roundtrip.json");
  tune::PlanCache a;
  const tune::TuneKey k1 = make_key(10);
  tune::TuneKey k2 = make_key(12);
  k2.family = "binomial";
  k2.layout = core::Layout::kSpecs;
  k2.american = true;
  a.put(k1, make_report(k1, "bs.intermediate.auto"));
  a.put(k2, make_report(k2, "binomial.advanced.auto"));
  ASSERT_TRUE(a.save_as(path));

  tune::PlanCache b;
  const robust::Status st = b.load(path);
  EXPECT_EQ(st.code(), robust::StatusCode::kOk) << st.to_string();
  EXPECT_EQ(b.size(), 2u);
  for (const tune::TuneKey& k : {k1, k2}) {
    const auto pa = a.find(k);
    const auto pb = b.find(k);
    ASSERT_TRUE(pa && pb) << k.to_string();
    EXPECT_EQ(pa->variant_id, pb->variant_id);
    EXPECT_EQ(pa->chunks_per_thread, pb->chunks_per_thread);
    EXPECT_EQ(pa->tasks, pb->tasks);
    EXPECT_EQ(pa->items_per_sec, pb->items_per_sec);  // exact: JSON round-trip
    EXPECT_EQ(pa->imbalance, pb->imbalance);
  }
  const auto rep = b.explain(k2);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->candidates.size(), 2u);
  EXPECT_EQ(rep->candidates[1].note, "kernel_error: it broke");
  EXPECT_TRUE(rep->key.american);
  EXPECT_TRUE(rep->candidates[0].tasks);

  // Determinism: a second save of the reloaded cache is byte-identical.
  const std::string path2 = temp_path("tune_roundtrip2.json");
  ASSERT_TRUE(b.save_as(path2));
  std::ifstream f1(path), f2(path2);
  const std::string t1((std::istreambuf_iterator<char>(f1)), std::istreambuf_iterator<char>());
  const std::string t2((std::istreambuf_iterator<char>(f2)), std::istreambuf_iterator<char>());
  EXPECT_EQ(t1, t2);
}

// Two processes (here: threads) saving the same cache path concurrently must
// never leave a torn file behind. save_as() writes to a per-writer temp name
// (path + ".tmp.<pid>.<seq>") and renames atomically, so every load observes
// either writer's complete snapshot — a shared ".tmp" name would let one
// writer clobber the other's half-written bytes before its rename.
TEST(PlanCache, ConcurrentSaversNeverTearTheFile) {
  const std::string path = temp_path("tune_two_writers.json");
  std::remove(path.c_str());

  tune::PlanCache w1, w2;
  const tune::TuneKey k1 = make_key(10);
  tune::TuneKey k2 = make_key(12);
  k2.family = "binomial";
  w1.put(k1, make_report(k1, "bs.intermediate.auto"));
  w2.put(k1, make_report(k1, "bs.intermediate.auto"));
  w2.put(k2, make_report(k2, "binomial.advanced.auto"));

  constexpr int kRounds = 200;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  auto writer = [&](tune::PlanCache* cache) {
    while (!go.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kRounds; ++i) {
      if (!cache->save_as(path)) failures.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::atomic<bool> done{false};
  std::atomic<int> degraded_loads{0};
  std::atomic<int> ok_loads{0};
  std::thread reader([&] {
    while (!go.load(std::memory_order_acquire)) {}
    while (!done.load(std::memory_order_acquire)) {
      tune::PlanCache r;
      const robust::Status st = r.load(path);
      if (st.code() == robust::StatusCode::kOk && r.size() >= 1) {
        ok_loads.fetch_add(1, std::memory_order_relaxed);
      } else if (st.code() != robust::StatusCode::kOk) {
        degraded_loads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread t1(writer, &w1), t2(writer, &w2);
  go.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  // A torn file parse-rejects into kDegraded; atomic renames mean the reader
  // never sees one (absent files load kOk/empty and are counted as neither).
  EXPECT_EQ(degraded_loads.load(), 0);
  EXPECT_GT(ok_loads.load(), 0);

  // The survivor is one writer's complete snapshot: k1 is present in both.
  tune::PlanCache final_cache;
  const robust::Status st = final_cache.load(path);
  EXPECT_EQ(st.code(), robust::StatusCode::kOk) << st.to_string();
  ASSERT_GE(final_cache.size(), 1u);
  EXPECT_TRUE(final_cache.find(k1).has_value());

  // No shared-name temp dropping left behind after both writers finished.
  std::ifstream probe(path + ".tmp");
  EXPECT_FALSE(probe.good()) << "stale shared tmp file left behind";
  std::remove(path.c_str());
}

TEST(PlanCache, AbsentFileLoadsOkAndEmpty) {
  tune::PlanCache cache;
  const robust::Status st = cache.load(temp_path("definitely_missing_tune_cache.json"));
  EXPECT_EQ(st.code(), robust::StatusCode::kOk);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, GarbageAndTruncatedFilesDegradeToEmpty) {
  const std::string path = temp_path("tune_corrupt.json");
  tune::PlanCache cache;
  cache.put(make_key(), make_report(make_key(), "bs.intermediate.auto"));

  for (const char* text : {"this is not json {", "{\"schema\": \"finbench.tune_cache/v1\"",
                           "[1, 2, 3]", "{}", ""}) {
    write_file(path, text);
    const robust::Status st = cache.load(path);
    EXPECT_EQ(st.code(), robust::StatusCode::kDegraded) << "input: " << text;
    EXPECT_TRUE(st.ok()) << "degraded is recoverable, not an error";
    EXPECT_EQ(cache.size(), 0u) << "a rejected file must not leave stale entries";
  }
}

TEST(PlanCache, WrongSchemaAndForeignFingerprintDegrade) {
  const std::string path = temp_path("tune_foreign.json");

  tune::PlanCache good;
  good.put(make_key(), make_report(make_key(), "bs.intermediate.auto"));
  ASSERT_TRUE(good.save_as(path));

  // Wrong schema string — a future one, or a v1 file whose keys still
  // carried caller pins: reject wholesale, counted as a rejection.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  for (const char* schema : {"finbench.tune_cache/v9", "finbench.tune_cache/v1"}) {
    std::string wrong = text;
    const auto at = wrong.find(tune::kTuneCacheSchema);
    ASSERT_NE(at, std::string::npos);
    wrong.replace(at, tune::kTuneCacheSchema.size(), schema);
    write_file(path, wrong);
    const std::uint64_t rejected0 = obs::counter("engine.tune.cache_rejected").value();
    tune::PlanCache c1;
    EXPECT_EQ(c1.load(path).code(), robust::StatusCode::kDegraded) << schema;
    EXPECT_EQ(c1.size(), 0u) << schema;
    EXPECT_EQ(obs::counter("engine.tune.cache_rejected").value(), rejected0 + 1) << schema;
  }

  // Foreign host: same schema, different fingerprint. Plans raced on
  // another machine must not dispatch this one.
  std::string foreign = text;
  const std::string host = tune::host_fingerprint().host;
  const auto hat = foreign.find("\"" + host + "\"");
  ASSERT_NE(hat, std::string::npos);
  foreign.replace(hat, host.size() + 2, "\"some-other-host\"");
  write_file(path, foreign);
  tune::PlanCache c2;
  EXPECT_EQ(c2.load(path).code(), robust::StatusCode::kDegraded);
  EXPECT_EQ(c2.size(), 0u);
}

TEST(PlanCache, MalformedEntriesAreSkippedGoodOnesKept) {
  const std::string path = temp_path("tune_partial.json");
  tune::PlanCache good;
  const tune::TuneKey key = make_key();
  good.put(key, make_report(key, "bs.intermediate.auto"));
  ASSERT_TRUE(good.save_as(path));

  // Append a second, malformed entry (missing its plan) by hand.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const auto at = text.rfind("]");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, ", {\"key\": {\"family\": \"mc\"}}");
  write_file(path, text);

  tune::PlanCache cache;
  const robust::Status st = cache.load(path);
  EXPECT_EQ(st.code(), robust::StatusCode::kDegraded);
  EXPECT_EQ(cache.size(), 1u) << "the well-formed entry survives";
  EXPECT_TRUE(cache.find(key).has_value());
}

// --- Engine auto dispatch ----------------------------------------------------

TEST(AutoDispatch, FirstPriceRacesRepetitionsHitThePlanCache) {
  core::Portfolio pf = core::Portfolio::bs(4096, core::Layout::kBsAos, 7001);
  engine::PricingRequest req;
  req.kernel_id = "blackscholes.auto";
  req.portfolio = pf.view();

  engine::Engine& eng = engine::Engine::shared();
  const std::uint64_t races0 = obs::counter("engine.tune.race").value();
  engine::PricingResult res = eng.price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_TRUE(res.tuned);
  EXPECT_EQ(res.kernel_id, "blackscholes.auto") << "the caller's intent id is preserved";
  EXPECT_FALSE(res.resolved_id.empty());
  EXPECT_NE(res.resolved_id, "blackscholes.auto");
  ASSERT_NE(engine::Registry::instance().find(res.resolved_id), nullptr);
  EXPECT_EQ(obs::counter("engine.tune.race").value(), races0 + 1);

  // Steady state: same request, same plan, no more races.
  const std::uint64_t hits0 = obs::counter("engine.tune.hit").value();
  const std::string first = res.resolved_id;
  for (int i = 0; i < 3; ++i) {
    eng.price(req, res);
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.resolved_id, first);
    EXPECT_TRUE(res.tuned);
  }
  EXPECT_EQ(obs::counter("engine.tune.race").value(), races0 + 1);
  EXPECT_EQ(obs::counter("engine.tune.hit").value(), hits0 + 3);
}

TEST(AutoDispatch, AutoIsBitwiseIdenticalToExplicitResolvedId) {
  const std::uint64_t seed = 7002;
  core::Portfolio pf_auto = core::Portfolio::bs(2048, core::Layout::kBsAos, seed);
  core::Portfolio pf_explicit = core::Portfolio::bs(2048, core::Layout::kBsAos, seed);

  engine::Engine& eng = engine::Engine::shared();
  engine::PricingRequest ra;
  ra.kernel_id = "bs.auto";
  ra.portfolio = pf_auto.view();
  const engine::PricingResult res_auto = eng.price(ra);
  ASSERT_TRUE(res_auto.status.ok()) << res_auto.status.to_string();
  ASSERT_TRUE(res_auto.tuned);

  engine::PricingRequest re;
  re.kernel_id = res_auto.resolved_id;  // the plan, named explicitly
  re.portfolio = pf_explicit.view();
  const engine::PricingResult res_explicit = eng.price(re);
  ASSERT_TRUE(res_explicit.status.ok());
  EXPECT_FALSE(res_explicit.tuned);
  EXPECT_EQ(res_explicit.resolved_id, res_auto.resolved_id);

  EXPECT_TRUE(bitwise_equal_bs(pf_auto.view(), pf_explicit.view()))
      << "auto dispatch must not perturb a single bit vs naming the variant";
}

TEST(AutoDispatch, ChunkedFamilyResolvesAndPrices) {
  auto specs = core::make_option_workload(256, 7003, {});
  core::Portfolio pf = core::Portfolio::specs(std::span<const core::OptionSpec>(specs));
  engine::PricingRequest req;
  req.kernel_id = "binomial.auto";
  req.portfolio = pf.view();
  req.steps = 48;

  const engine::PricingResult res = engine::Engine::shared().price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_TRUE(res.tuned);
  EXPECT_EQ(res.items, 256u);
  const engine::VariantInfo* v = engine::Registry::instance().find(res.resolved_id);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kernel, "binomial");
}

TEST(AutoDispatch, UnknownFamilyAndEmptyWorkloadFailCleanly) {
  engine::Engine& eng = engine::Engine::shared();
  core::Portfolio pf = core::Portfolio::bs(64, core::Layout::kBsAos, 7004);

  engine::PricingRequest req;
  req.kernel_id = "foo.auto";
  req.portfolio = pf.view();
  engine::PricingResult res = eng.price(req);
  EXPECT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), robust::StatusCode::kNotFound);
  EXPECT_NE(res.status.to_string().find("unknown auto family"), std::string::npos)
      << res.status.to_string();

  engine::PricingRequest empty;
  empty.kernel_id = "bs.auto";
  const engine::PricingResult res2 = eng.price(empty);
  EXPECT_FALSE(res2.status.ok());
  EXPECT_EQ(res2.status.code(), robust::StatusCode::kInvalidArgument);
  EXPECT_NE(res2.status.to_string().find("empty workload"), std::string::npos)
      << res2.status.to_string();
}

// An auto id runs its plan: a request that asks for two chunks per
// participant (a granularity the race never tries) and tasks on resolves
// to the same key as a default request (no second race), and prices
// exactly as the resolved id does under the plan's chunks_per_thread and
// task mode.
TEST(AutoDispatch, AutoRunsThePlansChunksAndTasksWhateverTheRequestAsks) {
  engine::ThreadPool pool(2);
  engine::Engine eng(&pool);
  const auto specs = core::make_option_workload(16, 7008);  // European by default
  const auto price = [&](const std::string& id, int cpt, engine::TaskMode tasks,
                         std::uint64_t& spawned) {
    engine::PricingRequest req;
    req.kernel_id = id;
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
    req.steps_per_year = 512;  // years up to 3.0: depths cross kMinTaskSteps
    req.chunks_per_thread = cpt;
    req.tasks = tasks;
    const std::uint64_t spawned0 = obs::counter("engine.tasks.spawned").value();
    engine::PricingResult res = eng.price(req);
    spawned = obs::counter("engine.tasks.spawned").value() - spawned0;
    EXPECT_TRUE(res.status.ok()) << id << ": " << res.status.to_string();
    return res;
  };
  std::uint64_t spawned = 0;

  const std::uint64_t races0 = obs::counter("engine.tune.race").value();
  const engine::PricingResult def = price("binomial.auto", 8, engine::TaskMode::kAuto, spawned);
  ASSERT_TRUE(def.tuned);
  EXPECT_EQ(obs::counter("engine.tune.race").value(), races0 + 1);

  std::uint64_t spawned_auto = 0;
  const engine::PricingResult odd =
      price("binomial.auto", 2, engine::TaskMode::kOn, spawned_auto);
  EXPECT_EQ(obs::counter("engine.tune.race").value(), races0 + 1)
      << "the request's chunks and tasks made a second tuning key";
  EXPECT_EQ(odd.resolved_id, def.resolved_id);

  engine::PricingRequest key_req;
  key_req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  key_req.steps_per_year = 512;
  const auto plan =
      tune::PlanCache::instance().find(tune::key_for(key_req, "binomial", eng.pool_size()));
  ASSERT_TRUE(plan.has_value());
  std::uint64_t spawned_explicit = 0;
  const engine::PricingResult expl =
      price(odd.resolved_id, plan->chunks_per_thread,
            plan->tasks ? engine::TaskMode::kOn : engine::TaskMode::kOff, spawned_explicit);
  EXPECT_EQ(odd.chunk_status.size(), expl.chunk_status.size())
      << "the auto request did not run the plan's chunks_per_thread ("
      << plan->chunks_per_thread << ")";
  EXPECT_EQ(spawned_auto, spawned_explicit)
      << "the auto request did not run the plan's task mode (tasks "
      << (plan->tasks ? "on" : "off") << ")";
  ASSERT_EQ(odd.values.size(), expl.values.size());
  for (std::size_t i = 0; i < odd.values.size(); ++i) {
    EXPECT_EQ(std::memcmp(&odd.values[i], &expl.values[i], sizeof(double)), 0) << "option " << i;
  }
}

// A European-only variant never prices an American option as European.
// Named explicitly, it refuses the book. Through an auto id, a plan
// resolved on a European book is not reused once the same specs turn
// American in place: the request re-resolves to a variant that prices
// early exercise.
TEST(AutoDispatch, EuropeanOnlyVariantsNeverPriceAmericanOptions) {
  engine::ThreadPool pool(2);
  engine::Engine eng(&pool);
  core::SingleOptionWorkloadParams p;
  p.style = core::ExerciseStyle::kAmerican;
  auto specs = core::make_option_workload(64, 7, p);
  const auto request = [&](const char* id) {
    engine::PricingRequest req;
    req.kernel_id = id;
    req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
    req.steps = 512;
    return req;
  };

  const engine::PricingResult ref = eng.price(request("binomial.reference.scalar"));
  ASSERT_TRUE(ref.status.ok()) << ref.status.to_string();
  for (const char* id : {"binomial.advanced.auto", "binomial.basic.auto"}) {
    ASSERT_TRUE(engine::Registry::instance().find(id)->european_only) << id;
    const engine::PricingResult res = eng.price(request(id));
    EXPECT_EQ(res.status.code(), robust::StatusCode::kInvalidArgument) << id;
    EXPECT_NE(res.status.to_string().find(id), std::string::npos) << res.status.to_string();
  }

  // Resolve binomial.auto on the European book to a European-only plan.
  for (core::OptionSpec& o : specs) o.style = core::ExerciseStyle::kEuropean;
  engine::PricingRequest req = request("binomial.auto");
  tune::RaceReport seeded;
  seeded.key = tune::key_for(req, "binomial", eng.pool_size());
  seeded.winner.variant_id = "binomial.advanced.auto";
  tune::PlanCache::instance().put(seeded.key, seeded);
  engine::PricingResult res = eng.price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  ASSERT_EQ(res.resolved_id, "binomial.advanced.auto");

  // The same request over the same specs, now American.
  for (core::OptionSpec& o : specs) o.style = core::ExerciseStyle::kAmerican;
  eng.price(req, res);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  const engine::VariantInfo* v = engine::Registry::instance().find(res.resolved_id);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->european_only) << res.resolved_id;
  ASSERT_EQ(res.values.size(), ref.values.size());
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    EXPECT_NEAR(res.values[i], ref.values[i], v->tolerance) << res.resolved_id << " option " << i;
  }
  tune::PlanCache::instance().erase(seeded.key);
}

// A request object reused with a new intent follows the new intent: the
// scratch-cached plan of "binomial.auto" must not answer "cn.auto". Both
// keys are seeded, so no race runs.
TEST(AutoDispatch, ReusedRequestFollowsANewIntent) {
  engine::ThreadPool pool(2);
  engine::Engine eng(&pool);
  const auto specs = core::make_option_workload(64, 7);
  engine::PricingRequest req;
  req.kernel_id = "binomial.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  req.steps = 128;
  tune::RaceReport bin, cn;
  bin.key = tune::key_for(req, "binomial", eng.pool_size());
  bin.winner.variant_id = "binomial.intermediate.auto";
  cn.key = tune::key_for(req, "cn", eng.pool_size());
  cn.winner.variant_id = "cn.direct_packed.auto";
  tune::PlanCache::instance().put(bin.key, bin);
  tune::PlanCache::instance().put(cn.key, cn);

  engine::PricingResult res = eng.price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.resolved_id, "binomial.intermediate.auto");

  req.kernel_id = "cn.auto";
  eng.price(req, res);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.resolved_id, "cn.direct_packed.auto");

  engine::PricingRequest fresh;
  fresh.kernel_id = "cn.auto";
  fresh.portfolio = req.portfolio;
  fresh.steps = req.steps;
  const engine::PricingResult want = eng.price(fresh);
  ASSERT_TRUE(want.status.ok()) << want.status.to_string();
  EXPECT_EQ(want.resolved_id, res.resolved_id);
  ASSERT_EQ(res.values.size(), want.values.size());
  EXPECT_EQ(std::memcmp(res.values.data(), want.values.data(),
                        want.values.size() * sizeof(double)),
            0);
  tune::PlanCache::instance().erase(bin.key);
  tune::PlanCache::instance().erase(cn.key);
}

// Changing any TuneKey ingredient of a resolved request in place
// re-resolves it: each step below seeds a different winner for the new
// key and expects the request to run it, not the plan its scratch holds.
TEST(AutoDispatch, ReusedRequestReresolvesWhenAnyKeyIngredientChanges) {
  engine::ThreadPool pool2(2), pool3(3);
  engine::Engine eng2(&pool2), eng3(&pool3);
  engine::Engine* eng = &eng2;
  auto specs = core::make_option_workload(64, 7012);  // European
  core::Portfolio blocked = core::Portfolio::bs(64, core::Layout::kBsBlocked, 7012);
  engine::PricingRequest req;
  req.kernel_id = "binomial.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  req.steps = 32;
  req.cn_num_prices = 33;

  std::vector<tune::TuneKey> seeded;
  const auto expect_resolves_to = [&](const char* change, const char* winner) {
    tune::RaceReport rep;
    rep.key = tune::key_for(req, tune::auto_family(req.kernel_id), eng->pool_size());
    rep.winner.variant_id = winner;
    tune::PlanCache::instance().put(rep.key, rep);
    seeded.push_back(rep.key);
    const engine::PricingResult res = eng->price(req);
    EXPECT_TRUE(res.status.ok()) << change << ": " << res.status.to_string();
    EXPECT_EQ(res.resolved_id, winner) << "changing " << change << " did not re-resolve";
  };
  const char* const a = "binomial.reference.scalar";
  const char* const b = "binomial.intermediate.auto";
  expect_resolves_to("nothing (first pricing)", a);
  req.steps = 48;
  expect_resolves_to("steps", b);
  req.steps_per_year = 64;
  expect_resolves_to("steps_per_year", a);
  req.npath = 4096;
  expect_resolves_to("npath", b);
  req.bridge_depth = 4;
  expect_resolves_to("bridge_depth", a);
  req.cn_num_prices = 65;
  expect_resolves_to("cn_num_prices", b);
  for (core::OptionSpec& o : specs) o.style = core::ExerciseStyle::kAmerican;
  expect_resolves_to("american", a);
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs).first(32));
  expect_resolves_to("size bucket", b);
  eng = &eng3;
  expect_resolves_to("threads", a);
  req.kernel_id = "cn.auto";
  expect_resolves_to("family", "cn.reference.scalar");
  req.kernel_id = "binomial.auto";
  req.portfolio = blocked.view();
  expect_resolves_to("layout", "binomial.blocked_gather.scalar");
  ASSERT_EQ(seeded.size(), 11u);
  for (const tune::TuneKey& k : seeded) tune::PlanCache::instance().erase(k);
}

// A tasks-on probe that spawned no task ran the tasks-off code, so it
// cannot win the race; a family without tasks is never probed tasks-on.
TEST(TuneRace, TasksOnProbeThatSpawnedNoTaskCannotWin) {
  engine::ThreadPool pool(2);
  engine::Engine eng(&pool);
  const auto specs = core::make_option_workload(16, 7011);
  engine::PricingRequest req;
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  req.steps = 64;  // steps_per_year = 0: no binomial variant spawns tasks
  ASSERT_EQ(req.steps_per_year, 0);

  tune::RaceReport rep = tune::race(eng, req, tune::key_for(req, "binomial", eng.pool_size()));
  ASSERT_TRUE(rep.winner.valid());
  int tasks_on = 0;
  for (const tune::CandidateResult& c : rep.candidates) {
    if (!c.tasks) continue;
    ++tasks_on;
    EXPECT_FALSE(c.ok) << c.id;
    EXPECT_EQ(c.note, "tasks on spawned no task") << c.id;
  }
  EXPECT_EQ(tasks_on, 1) << "phase 3 probes tasks on once";
  EXPECT_FALSE(rep.winner.tasks);

  req.steps = 16;
  req.cn_num_prices = 65;
  rep = tune::race(eng, req, tune::key_for(req, "cn", eng.pool_size()));
  ASSERT_TRUE(rep.winner.valid());
  for (const tune::CandidateResult& c : rep.candidates) EXPECT_FALSE(c.tasks) << c.id;
}

TEST(AutoDispatch, CorruptBoundCacheFileStillResolves) {
  // Bind the process-wide cache to a garbage file: load degrades, then an
  // auto price re-races and the race outcome is persisted over the wreck.
  const std::string path = temp_path("tune_engine_corrupt.json");
  write_file(path, "{{{{ nope");
  const std::uint64_t rejected0 = obs::counter("engine.tune.cache_rejected").value();
  const robust::Status st = tune::PlanCache::instance().set_path(path);
  EXPECT_EQ(st.code(), robust::StatusCode::kDegraded) << st.to_string();
  EXPECT_GT(obs::counter("engine.tune.cache_rejected").value(), rejected0);

  core::Portfolio pf = core::Portfolio::bs(512, core::Layout::kBsAos, 7006);
  engine::PricingRequest req;
  req.kernel_id = "bs.auto";
  req.portfolio = pf.view();
  const engine::PricingResult res = engine::Engine::shared().price(req);
  EXPECT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_TRUE(res.tuned);

  // The re-raced plan replaced the corrupt file with a loadable one.
  tune::PlanCache reread;
  EXPECT_EQ(reread.load(path).code(), robust::StatusCode::kOk);
  EXPECT_GE(reread.size(), 1u);

  tune::PlanCache::instance().set_path("");  // unbind for later tests
}

// A plan cache written by an older build can name a variant this build no
// longer ships — here the retired 4-wide Black–Scholes width twin.
// Resolving that key drops the stale plan, races once, and replaces the
// entry with a registered winner, whether the plan was put directly or
// loaded from a finbench.tune_cache/v2 file.
TEST(AutoDispatch, StalePlanNamingAnUnshippedVariantReRacesOnce) {
  constexpr const char* kStale = "bs.intermediate.avx2";
  ASSERT_EQ(engine::Registry::instance().find(kStale), nullptr);
  engine::Engine& eng = engine::Engine::shared();
  const std::string path = temp_path("tune_stale_plan.json");
  std::remove(path.c_str());

  for (const bool from_file : {false, true}) {
    const std::size_t n = from_file ? 8192 : 1024;  // one key per case
    core::Portfolio pf = core::Portfolio::bs(n, core::Layout::kBsAos, 7300);
    engine::PricingRequest req;
    req.kernel_id = "blackscholes.auto";
    req.portfolio = pf.view();
    const tune::TuneKey key =
        tune::key_for(req, tune::auto_family(req.kernel_id), eng.pool_size());
    if (from_file) {
      tune::PlanCache old_build;
      old_build.put(key, make_report(key, kStale));
      ASSERT_TRUE(old_build.save_as(path));
      const robust::Status st = tune::PlanCache::instance().set_path(path);
      ASSERT_EQ(st.code(), robust::StatusCode::kOk) << st.to_string();
    } else {
      tune::PlanCache::instance().put(key, make_report(key, kStale));
    }
    const auto stale = tune::PlanCache::instance().find(key);
    ASSERT_TRUE(stale.has_value());
    ASSERT_EQ(stale->variant_id, kStale);

    const std::uint64_t races0 = obs::counter("engine.tune.race").value();
    const engine::PricingResult res = eng.price(req);
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    EXPECT_TRUE(res.tuned);
    EXPECT_EQ(obs::counter("engine.tune.race").value(), races0 + 1) << from_file;
    ASSERT_NE(engine::Registry::instance().find(res.resolved_id), nullptr) << res.resolved_id;
    const auto plan = tune::PlanCache::instance().find(key);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->variant_id, res.resolved_id) << "the race replaced the stale entry";
    if (from_file) {
      tune::PlanCache reread;
      ASSERT_EQ(reread.load(path).code(), robust::StatusCode::kOk);
      const auto on_disk = reread.find(key);
      ASSERT_TRUE(on_disk.has_value());
      EXPECT_EQ(on_disk->variant_id, res.resolved_id) << "the file holds the new winner";
      tune::PlanCache::instance().set_path("");  // unbind for later tests
    }
    tune::PlanCache::instance().erase(key);
  }
  std::remove(path.c_str());
}

// --- Serve coalescing on the resolved plan -----------------------------------

TEST(AutoDispatch, ServeCoalescesAutoRequestsResolvingToTheSamePlan) {
  constexpr std::size_t kPer = 64;
  core::Portfolio pa = core::Portfolio::bs(kPer, core::Layout::kBsAos, 7100);
  core::Portfolio pb = core::Portfolio::bs(kPer, core::Layout::kBsAos, 7101);
  core::Portfolio sa = core::Portfolio::bs(kPer, core::Layout::kBsAos, 7100);
  core::Portfolio sb = core::Portfolio::bs(kPer, core::Layout::kBsAos, 7101);

  serve::PricingJob jobs[2];
  jobs[0].request.kernel_id = "blackscholes.auto";
  jobs[0].request.portfolio = pa.view();
  jobs[1].request.kernel_id = "blackscholes.auto";
  jobs[1].request.portfolio = pb.view();

  serve::Server server;
  ASSERT_TRUE(server.submit(jobs[0]).ok());
  ASSERT_TRUE(server.submit(jobs[1]).ok());
  server.start();
  server.wait(jobs[0]);
  server.wait(jobs[1]);
  server.stop();

  const serve::Server::Stats st = server.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.coalesced, 2u) << "two auto intents resolving identically must fuse";
  ASSERT_TRUE(jobs[0].result.status.ok()) << jobs[0].result.status.to_string();
  ASSERT_TRUE(jobs[1].result.status.ok());
  EXPECT_TRUE(jobs[0].result.tuned);
  EXPECT_EQ(jobs[0].result.kernel_id, "blackscholes.auto");
  EXPECT_EQ(jobs[0].result.resolved_id, jobs[1].result.resolved_id);
  ASSERT_FALSE(jobs[0].result.resolved_id.empty());

  // Bitwise parity with pricing the resolved variant solo on replicas.
  engine::Engine& eng = engine::Engine::shared();
  for (core::Portfolio* solo : {&sa, &sb}) {
    engine::PricingRequest r;
    r.kernel_id = jobs[0].result.resolved_id;
    r.portfolio = solo->view();
    const engine::PricingResult res = eng.price(r);
    ASSERT_TRUE(res.status.ok());
  }
  EXPECT_TRUE(bitwise_equal_bs(pa.view(), sa.view()));
  EXPECT_TRUE(bitwise_equal_bs(pb.view(), sb.view()));
}
