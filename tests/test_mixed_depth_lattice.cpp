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
//   - register-tiled packs return the level pass's bytes, at every width.
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
    const std::vector<core::OptionSpec>& specs = b.mixed;
    std::vector<std::uint64_t> order(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const int steps = std::max(16, static_cast<int>(specs[i].years * b.steps_per_year));
      order[i] = bin::depth_key(steps, specs[i].style, i);
    }
    std::sort(order.begin(), order.end());
    std::vector<double> packed(specs.size());
    bin::price_packed(specs, order, packed);
    // Every other key: each option lands in a pack with other mates (and
    // the partial pack moves), yet must price bitwise the same.
    for (std::size_t parity = 0; parity < 2; ++parity) {
      std::vector<std::uint64_t> half;
      for (std::size_t k = parity; k < order.size(); k += 2) half.push_back(order[k]);
      std::vector<double> got(specs.size(), -1.0);
      bin::price_packed(specs, half, got);
      for (const std::uint64_t k : half) {
        const std::size_t i = bin::key_index(k);
        ASSERT_EQ(got[i], packed[i]) << "seed " << seed << " option " << i;
      }
    }
    // Alone, an option fills a pack with repeats of itself.
    const std::size_t i = bin::key_index(order.back());
    const std::uint64_t solo = bin::depth_key(bin::key_steps(order.back()), specs[i].style, 0);
    double alone = 0.0;
    bin::price_packed({&specs[i], 1}, {&solo, 1}, {&alone, 1});
    ASSERT_EQ(alone, packed[i]) << "seed " << seed << " option " << i;
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
    const std::vector<core::OptionSpec>& specs = b.mixed;
    std::vector<int> steps(specs.size());
    std::vector<std::uint64_t> order(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      steps[i] = std::max(16, static_cast<int>(specs[i].years * b.steps_per_year));
      order[i] = bin::depth_key(steps[i], specs[i].style, i);
    }
    std::sort(order.begin(), order.end());
    std::vector<double> w4(specs.size()), widest(specs.size());
    bin::price_packed(specs, order, w4, bin::Width::kAvx2);
    bin::price_packed(specs, order, widest);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ(w4[i], widest[i]) << "seed " << seed << " option " << i;
      const double want = bin::price_one_reference(specs[i], steps[i]);
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
TEST(MixedDepthLattice, TiledPacksMatchLevelPassBitwise) {
  namespace bin = kernels::binomial;
  const engine::VariantInfo* level = engine::Registry::instance().find("binomial.intermediate.auto");
  const engine::VariantInfo* tiled = engine::Registry::instance().find("binomial.advanced.auto");
  ASSERT_NE(level, nullptr);
  ASSERT_NE(tiled, nullptr);
  ASSERT_FALSE(tiled->european_only);
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_tile_book(seed);
    const std::vector<core::OptionSpec>& specs = b.mixed;
    ASSERT_NE(specs.size() % 4, 0u);
    ASSERT_TRUE(same_bytes(run_batch(*tiled, b, specs), run_batch(*level, b, specs)))
        << "seed " << seed;

    std::vector<std::uint64_t> order(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      order[i] = bin::depth_key(static_cast<int>(specs[i].years * b.steps_per_year),
                                specs[i].style, i);
    }
    std::sort(order.begin(), order.end());
    const int top = bin::key_steps(order.back());
    for (const bin::Width w : {bin::Width::kScalar, bin::Width::kAvx2, bin::Width::kAvx512}) {
      std::vector<double> want(specs.size()), got(specs.size());
      bin::price_packed(specs, order, want, w);
      bin::price_packed_tiled(specs, order, got, w);
      ASSERT_TRUE(same_bytes(got, want)) << "seed " << seed << " width " << static_cast<int>(w);
      bin::price_intermediate(specs, top, want, w);
      bin::price_advanced(specs, top, got, w);
      ASSERT_TRUE(same_bytes(got, want))
          << "seed " << seed << " width " << static_cast<int>(w) << " uniform depth " << top;
    }
  }
}
