// finbench::tune contract tests (docs/autotuning.md):
//
//   - intent parsing: "<family>.auto" with exactly one dot is an intent;
//     "bs.intermediate.auto" is a concrete variant (".auto" is its width)
//   - TuneKey: strict ordering, map round-trips, pins separate keys
//   - PlanCache: put/find/explain/erase, file round-trip determinism
//     (save → load into a second cache → identical winner plans)
//   - corrupt-cache degradation: truncated / garbage / wrong-schema /
//     foreign-fingerprint files load as kDegraded with zero entries and
//     never throw; the engine still resolves (re-races) afterwards
//   - engine auto dispatch: first price races (engine.tune.race +1) and
//     stamps resolved_id/tuned; repetitions hit the scratch/plan cache
//     with the race count unchanged; auto outputs are BITWISE the outputs
//     of pricing the resolved id explicitly on a replica portfolio
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
  rep.winner.schedule = arch::Schedule::kStatic;
  rep.winner.chunks_per_thread = 4;
  rep.winner.items_per_sec = 1.25e7;
  rep.winner.imbalance = 1.5;
  rep.race_seconds = 0.25;
  rep.best_items_per_sec = 1.5e7;
  rep.pinned_losing = true;
  tune::CandidateResult c;
  c.id = variant;
  c.schedule = arch::Schedule::kStatic;
  c.chunks_per_thread = 4;
  c.items_per_sec = 1.25e7;
  c.ok = true;
  rep.candidates.push_back(c);
  c.id = "bs.basic.auto";
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
  EXPECT_FALSE(tune::is_auto_id("binomial.advanced_unrolled.auto"));
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

  tune::TuneKey pinned = a;
  pinned.pinned_schedule = static_cast<int>(arch::Schedule::kStatic);
  EXPECT_NE(a, pinned) << "a pinned request is a different tuning problem";

  std::map<tune::TuneKey, int> m;
  m[a] = 1;
  m[b] = 2;
  m[pinned] = 3;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m[a], 1);
  EXPECT_FALSE(a.to_string().empty());
}

// --- PlanCache ---------------------------------------------------------------

TEST(PlanCache, PutFindExplainErase) {
  tune::PlanCache cache;  // memory-only
  const tune::TuneKey key = make_key();
  EXPECT_FALSE(cache.find(key).has_value());

  cache.put(key, make_report(key, "bs.intermediate.avx2"));
  const auto plan = cache.find(key);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->variant_id, "bs.intermediate.avx2");
  EXPECT_EQ(plan->schedule, arch::Schedule::kStatic);
  EXPECT_EQ(plan->chunks_per_thread, 4);

  const auto rep = cache.explain(key);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->candidates.size(), 2u);
  EXPECT_TRUE(rep->pinned_losing);

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
  k2.pinned_schedule = static_cast<int>(arch::Schedule::kDynamic);
  k2.pinned_chunks = 16;
  a.put(k1, make_report(k1, "bs.intermediate.avx2"));
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
    EXPECT_EQ(pa->schedule, pb->schedule);
    EXPECT_EQ(pa->chunks_per_thread, pb->chunks_per_thread);
    EXPECT_EQ(pa->items_per_sec, pb->items_per_sec);  // exact: JSON round-trip
    EXPECT_EQ(pa->imbalance, pb->imbalance);
  }
  const auto rep = b.explain(k2);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->candidates.size(), 2u);
  EXPECT_EQ(rep->candidates[1].note, "kernel_error: it broke");
  EXPECT_TRUE(rep->key.american);
  EXPECT_EQ(rep->key.pinned_chunks, 16);

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
  w1.put(k1, make_report(k1, "bs.intermediate.avx2"));
  w2.put(k1, make_report(k1, "bs.intermediate.avx2"));
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
  cache.put(make_key(), make_report(make_key(), "bs.intermediate.avx2"));

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
  good.put(make_key(), make_report(make_key(), "bs.intermediate.avx2"));
  ASSERT_TRUE(good.save_as(path));

  // Wrong schema string: reject wholesale.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::string wrong = text;
  const auto at = wrong.find("finbench.tune_cache/v1");
  ASSERT_NE(at, std::string::npos);
  wrong.replace(at, 22, "finbench.tune_cache/v9");
  write_file(path, wrong);
  tune::PlanCache c1;
  EXPECT_EQ(c1.load(path).code(), robust::StatusCode::kDegraded);
  EXPECT_EQ(c1.size(), 0u);

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
  good.put(key, make_report(key, "bs.intermediate.avx2"));
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

TEST(AutoDispatch, PinnedScheduleIsHonoredByThePlan) {
  core::Portfolio pf = core::Portfolio::bs(1024, core::Layout::kBsAos, 7005);
  engine::PricingRequest req;
  req.kernel_id = "bs.auto";
  req.portfolio = pf.view();
  req.schedule = arch::Schedule::kStatic;
  req.pin_schedule = true;

  const std::uint64_t races0 = obs::counter("engine.tune.race").value();
  const engine::PricingResult res = engine::Engine::shared().price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_TRUE(res.tuned);
  // The pinned key is distinct from the unpinned one raced by other tests.
  EXPECT_EQ(obs::counter("engine.tune.race").value(), races0 + 1);
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
