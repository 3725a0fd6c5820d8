// Property tests for mixed-depth binomial lattices (steps_per_year > 0:
// each option's depth is T x steps_per_year). Over 50 seeded books mixing
// American and European calls and puts with skewed maturities:
//
//   - every binomial specs variant stays within its registered tolerance
//     of binomial.reference.scalar;
//   - every variant's outputs are bitwise the same for any participant
//     count, chunk granularity and task mode, and equal to its
//     own whole-batch run_batch;
//   - a depth-packed lane's price does not depend on its pack-mates, and
//     4-wide packs price as the widest ones do;
//   - register-tiled packs return the level pass's bytes, at every width;
//   - the exercise cut skips only nodes where no put can exercise;
//   - the request's pack plan keeps lanes busy at every chunk granularity
//     the tuner races, and a planned request's fallback, deadline NaN and
//     fault masks land on the right options in caller order, also for
//     each member of a fused group.
//
// A failure names the seed that produced it, so it can be replayed alone.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/thread_pool.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/obs/flight_recorder.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/resilience/chaos.hpp"
#include "finbench/robust/sanitize.hpp"

using namespace finbench;
using engine::Engine;
using engine::PricingRequest;
using engine::PricingResult;

namespace {

constexpr std::uint64_t kSeeds = 50;

struct Book {
  std::vector<core::OptionSpec> mixed;     // both styles
  std::vector<core::OptionSpec> european;  // the same options, all European
  int steps_per_year = 0;
};

// Skewed maturities as in a real book (most short, a few long), both
// option types and both exercise styles. Every fifth seed reaches depths
// past kMinTaskSteps, so the scalar variants' banded tasks run too.
Book make_book(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + 1);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  Book b;
  b.steps_per_year = seed % 5 == 0 ? 200 : 64;
  const std::size_t n = 9 + static_cast<std::size_t>(u01(rng) * 40.0);
  for (std::size_t i = 0; i < n; ++i) {
    core::OptionSpec o;
    o.spot = 70.0 + 60.0 * u01(rng);
    o.strike = 70.0 + 60.0 * u01(rng);
    const double u = u01(rng);
    o.years = 0.05 + 2.95 * u * u * u;
    o.rate = 0.01 + 0.05 * u01(rng);
    o.vol = 0.12 + 0.40 * u01(rng);
    o.type = u01(rng) < 0.5 ? core::OptionType::kCall : core::OptionType::kPut;
    o.style = u01(rng) < 0.5 ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
    b.mixed.push_back(o);
    o.style = core::ExerciseStyle::kEuropean;
    b.european.push_back(o);
  }
  return b;
}

std::vector<const engine::VariantInfo*> specs_variants() {
  std::vector<const engine::VariantInfo*> out;
  for (const engine::VariantInfo* v : engine::Registry::instance().all()) {
    if (v->kernel == "binomial" && v->layout == core::Layout::kSpecs) out.push_back(v);
  }
  return out;
}

// The book a variant can price: European-only variants get the all-European copy.
const std::vector<core::OptionSpec>& book_for(const engine::VariantInfo& v, const Book& b) {
  return v.european_only ? b.european : b.mixed;
}

// The options in depth_key order (class, then depth): pack order for
// kernels::binomial::price_packed.
std::vector<core::OptionSpec> in_key_order(const std::vector<core::OptionSpec>& specs,
                                           int steps_per_year) {
  namespace bin = kernels::binomial;
  std::vector<std::uint64_t> keys(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    keys[i] = bin::depth_key(bin::depth_for(specs[i], steps_per_year), specs[i], i);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<core::OptionSpec> out;
  for (const std::uint64_t k : keys) out.push_back(specs[bin::key_index(k)]);
  return out;
}

std::vector<double> run_batch(const engine::VariantInfo& v, const Book& b,
                              const std::vector<core::OptionSpec>& specs) {
  PricingRequest req;
  req.kernel_id = v.id;
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  req.steps_per_year = b.steps_per_year;
  PricingResult res;
  v.run_batch(req, req.portfolio, res);
  return res.values;
}

}  // namespace

TEST(MixedDepthLattice, EveryVariantWithinToleranceOfReference) {
  const engine::VariantInfo* ref = engine::Registry::instance().find("binomial.reference.scalar");
  ASSERT_NE(ref, nullptr);
  const auto variants = specs_variants();
  ASSERT_GE(variants.size(), 4u);  // reference, basic, intermediate, advanced
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_book(seed);
    for (const engine::VariantInfo* v : variants) {
      const std::vector<core::OptionSpec>& specs = book_for(*v, b);
      const std::vector<double> want = run_batch(*ref, b, specs);
      const std::vector<double> got = run_batch(*v, b, specs);
      ASSERT_EQ(got.size(), specs.size()) << v->id << " seed " << seed;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const double band = v->tolerance * std::max(1.0, std::fabs(want[i]));
        ASSERT_LE(std::fabs(got[i] - want[i]), band)
            << v->id << " seed " << seed << " option " << i << " got " << got[i] << " want "
            << want[i];
      }
    }
  }
}

TEST(MixedDepthLattice, OutputsAreBitwiseInvariantAcrossExecutionShapes) {
  const int nproc = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<std::unique_ptr<engine::ThreadPool>> pools;
  std::vector<std::unique_ptr<Engine>> engines;
  for (int p = 1; p <= nproc; ++p) {
    pools.push_back(std::make_unique<engine::ThreadPool>(p));
    engines.push_back(std::make_unique<Engine>(pools.back().get()));
  }
  const auto variants = specs_variants();
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_book(seed);
    for (const engine::VariantInfo* v : variants) {
      const std::vector<core::OptionSpec>& specs = book_for(*v, b);
      const std::vector<double> want = run_batch(*v, b, specs);
      for (std::size_t p = 0; p < engines.size(); ++p) {
        for (const int cpt : {1, 3, 8}) {
          for (const auto tasks : {engine::TaskMode::kOff, engine::TaskMode::kOn}) {
            PricingRequest req;
            req.kernel_id = v->id;
            req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
            req.steps_per_year = b.steps_per_year;
            req.chunks_per_thread = cpt;
            req.tasks = tasks;
            PricingResult res;
            engines[p]->price(req, res);
            ASSERT_TRUE(res.status.ok()) << v->id << " seed " << seed << ": "
                                         << res.status.to_string();
            ASSERT_EQ(res.values.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
              ASSERT_EQ(res.values[i], want[i])
                  << v->id << " seed " << seed << " option " << i << " participants "
                  << p + 1 << " chunks_per_thread " << cpt << " tasks "
                  << (tasks == engine::TaskMode::kOn ? "on" : "off");
            }
          }
        }
      }
    }
  }
}

TEST(MixedDepthLattice, PackedLaneIgnoresItsPackMates) {
  namespace bin = kernels::binomial;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_book(seed);
    const std::vector<core::OptionSpec> specs = in_key_order(b.mixed, b.steps_per_year);
    const std::size_t n = specs.size();
    std::vector<double> packed(n);
    bin::price_packed(specs, b.steps_per_year, packed);
    // Every other option: each lands in a pack with other mates (and the
    // partial pack moves), yet must price bitwise the same.
    for (std::size_t parity = 0; parity < 2; ++parity) {
      std::vector<core::OptionSpec> half;
      for (std::size_t k = parity; k < n; k += 2) half.push_back(specs[k]);
      std::vector<double> got(half.size(), -1.0);
      bin::price_packed(half, b.steps_per_year, got);
      for (std::size_t k = 0; k < half.size(); ++k) {
        ASSERT_EQ(got[k], packed[parity + 2 * k]) << "seed " << seed << " option " << k;
      }
    }
    // In reverse, every pack's lanes descend in depth: the kernel puts
    // them back in ascending order.
    const std::vector<core::OptionSpec> reversed(specs.rbegin(), specs.rend());
    std::vector<double> back(n);
    bin::price_packed(reversed, b.steps_per_year, back);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(back[n - 1 - k], packed[k]) << "seed " << seed << " option " << k;
    }
    // Alone, an option fills a pack with repeats of itself.
    double alone = 0.0;
    bin::price_packed({&specs.back(), 1}, b.steps_per_year, {&alone, 1});
    ASSERT_EQ(alone, packed.back()) << "seed " << seed;
  }
}

// The 4-wide depth packs (the exhibits' SNB-EP rows) stay within the
// registered 1e-8 of the scalar reference on every book, and bitwise
// equal to the widest packs: a lane never reads its pack-mates, whatever
// the pack width.
TEST(MixedDepthLattice, FourWidePacksMatchTheReference) {
  namespace bin = kernels::binomial;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_book(seed);
    const std::vector<core::OptionSpec> specs = in_key_order(b.mixed, b.steps_per_year);
    std::vector<double> w4(specs.size()), widest(specs.size());
    bin::price_packed(specs, b.steps_per_year, w4, bin::Width::kAvx2);
    bin::price_packed(specs, b.steps_per_year, widest);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ(w4[i], widest[i]) << "seed " << seed << " option " << i;
      const double want =
          bin::price_one_reference(specs[i], bin::depth_for(specs[i], b.steps_per_year));
      ASSERT_LE(std::fabs(w4[i] - want), 1e-8 * std::max(1.0, std::fabs(want)))
          << "seed " << seed << " option " << i;
    }
  }
}

namespace {

// A book whose depths sit on, inside and just past the tile boundaries of
// both tile depths (4 and 16 levels) below its deepest option, so lane
// start levels cut tiles at every offset. Calls and puts, both exercise
// styles, q of 0 or 0.03, and an odd option count (no width divides it).
// Option 0 is an American put whose strike is exactly one of its node
// spots, so the exercise value there is a signed zero.
Book make_tile_book(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 6151 + 11);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto pick = [&](int k) { return static_cast<int>(u01(rng) * k); };
  Book b;
  b.steps_per_year = 64;
  const int top = 48 + static_cast<int>(seed * 37 % 200);
  const std::size_t n = 8 * (1 + seed % 5) + 1 + 2 * (seed % 4);
  for (std::size_t i = 0; i < n; ++i) {
    const int ts = u01(rng) < 0.5 ? 4 : 16;
    const int depth =
        std::clamp(top - ts * pick((top - 16) / ts + 1) + pick(4) - 1, 16, top);
    core::OptionSpec o;
    o.spot = 70.0 + 60.0 * u01(rng);
    o.strike = 70.0 + 60.0 * u01(rng);
    o.years = (depth + 0.5) / b.steps_per_year;  // steps_for() gives `depth`
    o.rate = 0.01 + 0.05 * u01(rng);
    o.vol = 0.12 + 0.40 * u01(rng);
    o.dividend = u01(rng) < 0.5 ? 0.0 : 0.03;
    o.type = u01(rng) < 0.5 ? core::OptionType::kCall : core::OptionType::kPut;
    o.style = u01(rng) < 0.5 ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
    b.mixed.push_back(o);
  }
  // Walk the kernels' own node-spot chain (S·d^depth, then *= 1/d per
  // level and *= u/d per node) to node (depth/2, depth/6).
  core::OptionSpec& o = b.mixed[0];
  o.type = core::OptionType::kPut;
  o.style = core::ExerciseStyle::kAmerican;
  const int depth = static_cast<int>(o.years * b.steps_per_year);
  const kernels::binomial::detail::CrrDerived p = kernels::binomial::detail::crr_derived(o, depth);
  double node = o.spot * std::pow(p.down, depth);
  for (int level = depth; level > depth / 2; --level) node *= 1.0 / p.down;
  for (int j = 0; j < depth / 6; ++j) node *= p.up / p.down;
  o.strike = node;
  return b;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

// binomial.advanced.auto reduces its packs in register tiles (Lis. 3) cut
// at lane start levels, with the exercise max inside the tile;
// binomial.intermediate.auto walks one level at a time. Every node runs
// the same expression on the same operands, so the two agree byte for
// byte: through the registry, and at every width for mixed-depth packs
// and for uniform-depth batches whose packs mix the exercise classes.
// Each book runs as generated and turned into American puts only (every
// pack cuts its exercise test) and American calls only (none does).
TEST(MixedDepthLattice, TiledPacksMatchLevelPassBitwise) {
  namespace bin = kernels::binomial;
  const engine::VariantInfo* level = engine::Registry::instance().find("binomial.intermediate.auto");
  const engine::VariantInfo* tiled = engine::Registry::instance().find("binomial.advanced.auto");
  ASSERT_NE(level, nullptr);
  ASSERT_NE(tiled, nullptr);
  ASSERT_FALSE(tiled->european_only);
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book generated = make_tile_book(seed);
    for (const char* side : {"mixed", "puts", "calls"}) {
      Book b = generated;
      if (side[0] != 'm') {
        for (core::OptionSpec& o : b.mixed) {
          o.style = core::ExerciseStyle::kAmerican;
          o.type = side[0] == 'p' ? core::OptionType::kPut : core::OptionType::kCall;
        }
      }
      const std::vector<core::OptionSpec>& specs = b.mixed;
      ASSERT_NE(specs.size() % 4, 0u);
      ASSERT_TRUE(same_bytes(run_batch(*tiled, b, specs), run_batch(*level, b, specs)))
          << "seed " << seed << " " << side;

      const std::vector<core::OptionSpec> packed = in_key_order(specs, b.steps_per_year);
      int top = 0;
      for (const core::OptionSpec& o : specs) {
        top = std::max(top, bin::depth_for(o, b.steps_per_year));
      }
      for (const bin::Width w : {bin::Width::kScalar, bin::Width::kAvx2, bin::Width::kAvx512}) {
        std::vector<double> want(specs.size()), got(specs.size());
        bin::price_packed(packed, b.steps_per_year, want, w);
        bin::price_packed_tiled(packed, b.steps_per_year, got, w);
        ASSERT_TRUE(same_bytes(got, want))
            << "seed " << seed << " " << side << " width " << static_cast<int>(w);
        bin::price_intermediate(specs, top, want, w);
        bin::price_advanced(specs, top, got, w);
        ASSERT_TRUE(same_bytes(got, want)) << "seed " << seed << " " << side << " width "
                                           << static_cast<int>(w) << " uniform depth " << top;
      }
    }
  }
}

// The exercise cut (DESIGN.md §4) may skip only nodes where no American
// put can exercise. Walk each lane's node spots exactly as the kernels do
// (S·d^depth, times 1/d per level and u/d per node) and check that every
// node at or above exercise_cut(L, x) has a negative intrinsic value
// fma(−1, S, K), so max(cont, K − S) there is cont. Adversarial lanes:
// strikes exactly on a node spot, a hair inside and outside the cut
// margin (2·kCutMargin up-moves below a node spot), vol 0.01 and 1e-7,
// depths 16 and 1536, q 0 and 0.03.
TEST(MixedDepthLattice, ExerciseCutSkipsOnlyNodesNoPutCanExercise) {
  namespace bin = kernels::binomial;
  namespace det = bin::detail;
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::size_t skipped = 0;
  for (const int depth : {16, 17, 255, 1536}) {
    for (const double vol : {1e-7, 0.01, 0.2, 0.6}) {
      for (const double q : {0.0, 0.03}) {
        core::OptionSpec o;
        o.spot = 80.0 + 40.0 * u01(rng);
        o.years = 0.25 + 2.75 * u01(rng);
        // Small r − q keeps p in [0, 1] at low vol.
        o.rate = vol < 1e-3 ? q : vol < 0.05 ? q + 0.005 * u01(rng) : 0.01 + 0.04 * u01(rng);
        o.vol = vol;
        o.dividend = q;
        o.type = core::OptionType::kPut;
        o.style = core::ExerciseStyle::kAmerican;
        const det::CrrDerived p = det::crr_derived(o, depth);
        const double invd = 1.0 / p.down, ratio = p.up / p.down;
        // The spot of node j of level L on the kernels' chain.
        const auto spot_at = [&](int level, int j) {
          double lv = o.spot * std::pow(p.down, depth);
          for (int i = depth; i > level; --i) lv *= invd;
          for (int k = 0; k < j; ++k) lv *= ratio;
          return lv;
        };
        const int lvl = depth / 2 + static_cast<int>(u01(rng) * (depth / 2));
        const double on = spot_at(lvl, lvl / 3 + 1);
        const double edge = on * std::pow(p.up, -4.0 * det::kCutMargin);
        std::vector<double> strikes = {on, edge, std::nextafter(edge, 0.0),
                                       std::nextafter(edge, 1e300), edge * (1 + 1e-12),
                                       edge * (1 - 1e-12), 80.0 + 40.0 * u01(rng)};
        std::vector<double> x(strikes.size());
        for (std::size_t k = 0; k < strikes.size(); ++k) {
          o.strike = strikes[k];
          x[k] = det::exercise_cut_x(o, depth);
        }
        double lv = o.spot * std::pow(p.down, depth);
        for (int i = depth; i > 0; --i) {
          lv *= invd;  // level i-1 base, as american_level and the tile seeds
          double node = lv;
          for (int j = 0; j <= i - 1; ++j, node *= ratio) {
            for (std::size_t k = 0; k < strikes.size(); ++k) {
              if (j < det::exercise_cut(i - 1, x[k])) continue;
              ++skipped;
              ASSERT_LT(std::fma(-1.0, node, strikes[k]), 0.0)
                  << "depth " << depth << " vol " << vol << " q " << q << " strike " << k
                  << " level " << i - 1 << " node " << j;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(skipped, 0u);

  // Calls never cut, European lanes never constrain a pack's cut.
  core::OptionSpec c;
  c.type = core::OptionType::kCall;
  c.style = core::ExerciseStyle::kAmerican;
  EXPECT_EQ(det::exercise_cut(40, det::exercise_cut_x(c, 64)), 41);
  c.style = core::ExerciseStyle::kEuropean;
  EXPECT_EQ(det::exercise_cut(40, det::exercise_cut_x(c, 64)), 0);
  EXPECT_EQ(det::exercise_cut(40, std::nan("")), 41);
}

namespace {

// perfbench's exotic_book shape: puts, half American, maturities skewed
// short (0.05–3 years), 512 steps a year.
Book make_exotic_book(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed * 104729 + 3);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  Book b;
  b.steps_per_year = 512;
  for (std::size_t i = 0; i < n; ++i) {
    core::OptionSpec o;
    o.spot = 80.0 + 40.0 * u01(rng);
    o.strike = 80.0 + 40.0 * u01(rng);
    const double u = u01(rng);
    o.years = 0.05 + 2.95 * u * u * u;
    o.rate = 0.01 + 0.04 * u01(rng);
    o.vol = 0.15 + 0.30 * u01(rng);
    o.type = core::OptionType::kPut;
    o.style = u01(rng) < 0.5 ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
    b.mixed.push_back(o);
  }
  return b;
}

}  // namespace

// The request-wide pack plan keeps the SIMD lanes busy at every chunk
// granularity the tuner races (chunks_per_thread 1, 4, 8, 16): each
// pricing records one binomial.lane_fill (useful over computed
// lane-levels) of at least 95%, and its chunks are ranges of whole packs
// (interior boundaries on pack multiples, per the flight recorder).
TEST(MixedDepthLattice, PackPlanFillsLanesAtEveryChunkGranularity) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  obs::Stat& fill = obs::stat("binomial.lane_fill");
  const std::size_t lanes = static_cast<std::size_t>(kernels::binomial::pack_lanes());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Book b = make_exotic_book(seed, seed % 2 ? 1024 : 600);
    for (const char* id : {"binomial.intermediate.auto", "binomial.advanced.auto"}) {
      for (const int cpt : {1, 4, 8, 16}) {
        PricingRequest req;
        req.kernel_id = id;
        req.portfolio = core::view_of(std::span<const core::OptionSpec>(b.mixed));
        req.steps_per_year = b.steps_per_year;
        req.chunks_per_thread = cpt;
        fill.reset();
        PricingResult res;
        eng.price(req, res);
        ASSERT_TRUE(res.status.ok()) << res.status.to_string();
        const obs::Stat::Summary f = fill.summary();
        ASSERT_EQ(f.count, 1u) << id << " seed " << seed << " cpt " << cpt;
        EXPECT_GE(f.min, 0.95) << id << " seed " << seed << " cpt " << cpt;
        EXPECT_LE(f.max, 1.0);
        std::size_t chunks = 0;
        for (const obs::FlightRecord& r : obs::flight_recorder().snapshot()) {
          if (r.request_id != res.request_id) continue;
          ++chunks;
          EXPECT_EQ(r.begin % lanes, 0u) << id << " cpt " << cpt;
        }
        EXPECT_EQ(chunks, res.chunk_status.size());
      }
    }
  }
}

// A planned request prices a reordered copy of its options, so every
// per-option output must find its way back to caller order. One request
// with sanitizer-skipped options (NaN spot), a throw injected into every
// chunk (each re-priced through the fallback link), slow chunks and a
// deadline: every option that was priced carries the clean price, every
// other one is NaN — the skipped ones and exactly as many as the deadline
// chunks hold — and option_faults marks the skipped ones in caller order.
TEST(MixedDepthLattice, PlannedRequestKeepsFallbackDeadlineAndMasksInCallerOrder) {
  Book b = make_exotic_book(7, 400);
  b.steps_per_year = 128;
  for (std::size_t i = 0; i < b.mixed.size(); i += 3) b.mixed[i].type = core::OptionType::kCall;
  std::vector<core::OptionSpec> specs = b.mixed;
  std::vector<bool> poisoned(specs.size(), false);
  for (std::size_t i = 1; i < specs.size(); i += 7) {
    specs[i].spot = std::nan("");
    poisoned[i] = true;
  }
  const engine::VariantInfo* v = engine::Registry::instance().find("binomial.advanced.auto");
  ASSERT_NE(v, nullptr);
  const std::vector<double> clean = run_batch(*v, b, b.mixed);

  engine::ThreadPool pool(1);
  Engine eng(&pool);
  PricingRequest req;
  req.kernel_id = v->id;
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
  req.steps_per_year = b.steps_per_year;
  req.chunks_per_thread = 64;
  req.sanitize = robust::SanitizePolicy::kSkip;
  req.faults.throw_rate = 1.0;
  req.faults.slow = 1.0;
  req.faults.slow_ms = 15.0;
  req.deadline_seconds = 0.04;
  obs::Stat& fill = obs::stat("binomial.lane_fill");
  fill.reset();
  PricingResult res;
  eng.price(req, res);
  EXPECT_EQ(fill.summary().count, 1u);  // the fallback links plan nothing
  ASSERT_EQ(res.status.code(), robust::StatusCode::kDeadlineExceeded) << res.status.to_string();
  ASSERT_GT(res.chunks_degraded, 0u);
  ASSERT_GT(res.chunks_deadline, 0u);

  std::size_t unpriced = 0;
  for (const obs::FlightRecord& r : obs::flight_recorder().snapshot()) {
    if (r.request_id == res.request_id && std::string(r.status) == "deadline") {
      unpriced += r.end - r.begin;
    }
  }
  ASSERT_EQ(res.option_faults.size(), specs.size());
  std::size_t nan_priced = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const bool skipped = (res.option_faults[i] & robust::kFaultSkipped) != 0;
    ASSERT_EQ(skipped, poisoned[i]) << "option " << i;
    if (skipped) {
      ASSERT_TRUE(std::isnan(res.values[i])) << "option " << i;
    } else if (std::isnan(res.values[i])) {
      ++nan_priced;
    } else {
      ASSERT_EQ(res.values[i], clean[i]) << "option " << i;
    }
  }
  // The deadline chunks' ranges hold skipped options too.
  std::size_t skipped_unpriced = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) skipped_unpriced += poisoned[i];
  EXPECT_GE(unpriced, nan_priced);
  EXPECT_LE(unpriced, nan_priced + skipped_unpriced);
  EXPECT_EQ(res.items + unpriced, specs.size());
}

// A fused group of mixed-depth requests is priced under one pack plan, so
// a fused chunk holds plan positions of several members. Each member must
// be charged for the chunks that held its options: its items are the
// options it got priced, its status is clean only if all were, and a
// degraded or skipped chunk counts against exactly the members it held.
// One participant runs four chunks in order; a variant-scoped fault makes
// every chunk throw (re-priced through the fallback link, kDegraded) and
// sleep past the group deadline, so only chunk 0, the deepest packs, runs.
TEST(MixedDepthLattice, FusedPlannedGroupChargesEachMemberItsOwnChunks) {
  const char* id = "binomial.advanced.auto";
  const engine::VariantInfo* v = engine::Registry::instance().find(id);
  ASSERT_NE(v, nullptr);
  std::vector<Book> books;
  for (const std::size_t n : {64u, 40u, 88u, 8u}) {
    books.push_back(make_exotic_book(20 + n, n));
    books.back().steps_per_year = 128;
  }
  engine::ThreadPool pool(1);
  Engine eng(&pool);
  std::vector<PricingRequest> reqs(books.size());
  std::vector<PricingResult> res(books.size());
  std::vector<engine::GroupJob> group;
  for (std::size_t j = 0; j < books.size(); ++j) {
    reqs[j].kernel_id = id;
    reqs[j].portfolio = core::view_of(std::span<const core::OptionSpec>(books[j].mixed));
    reqs[j].steps_per_year = 128;
    reqs[j].chunks_per_thread = 4;
    group.push_back({&reqs[j], &res[j]});
  }
  ASSERT_TRUE(eng.fusable(reqs[0], reqs[1]));

  robust::FaultPlan chaos;
  chaos.seed = 5;
  chaos.throw_rate = 1.0;
  chaos.slow = 1.0;
  chaos.slow_ms = 40.0;
  resilience::set_variant_fault(id, chaos);
  engine::GroupScratch gs;
  gs.deadline_seconds = 0.020;  // dies inside chunk 0
  eng.price_group(group, gs);
  resilience::clear_variant_faults();
  const std::vector<std::uint8_t>& cs = gs.fused_res.chunk_status;
  ASSERT_EQ(cs.size(), 4u);
  ASSERT_EQ(static_cast<engine::ChunkStatus>(cs[0]), engine::ChunkStatus::kDegraded);
  for (std::size_t c = 1; c < cs.size(); ++c) {
    ASSERT_NE(static_cast<engine::ChunkStatus>(cs[c]), engine::ChunkStatus::kOk);
    ASSERT_NE(static_cast<engine::ChunkStatus>(cs[c]), engine::ChunkStatus::kDegraded);
  }

  std::size_t partial = 0, untouched = 0;
  for (std::size_t j = 0; j < books.size(); ++j) {
    const PricingResult& r = res[j];
    const std::vector<double> clean = run_batch(*v, books[j], books[j].mixed);
    ASSERT_EQ(r.values.size(), books[j].mixed.size());
    std::size_t finite = 0;
    for (std::size_t i = 0; i < r.values.size(); ++i) {
      if (std::isnan(r.values[i])) continue;
      ++finite;
      ASSERT_EQ(r.values[i], clean[i]) << "member " << j << " option " << i;
    }
    const std::size_t m = r.values.size();
    EXPECT_EQ(r.items, finite) << "member " << j;
    EXPECT_EQ(r.chunks_degraded, finite > 0 ? 1u : 0u) << "member " << j;
    EXPECT_EQ(r.chunks_deadline > 0, finite < m) << "member " << j;
    EXPECT_EQ(r.chunks_failed, 0u) << "member " << j;
    EXPECT_EQ(r.status.code(), finite < m ? robust::StatusCode::kDeadlineExceeded
                                          : robust::StatusCode::kDegraded)
        << "member " << j << ": " << r.status.to_string();
    partial += finite > 0 && finite < m;
    untouched += finite == 0;
  }
  // The plan interleaves the members: chunk 0 priced part of at least one
  // member and none of another.
  EXPECT_GT(partial, 0u);
  EXPECT_GT(untouched, 0u);
}
