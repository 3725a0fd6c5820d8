// Correctness gate for the option-packed direct Crank–Nicolson solve
// (kernels::cn::price_direct_packed, registry id cn.direct_packed.auto).
// Over seeded books:
//
//   - on put books every lane matches the scalar direct solvers
//     (price_american_brennan_schwartz, price_european_thomas) to 1e-12;
//   - on books mixing calls and puts, both styles, dividends and
//     maturities, every lane matches a fully converged PSOR
//     (price_reference at epsilon 1e-24) to 1e-8: the packed solve is the
//     exact solution of the discrete problem, mirrored calls included;
//   - through the engine it stays within its registered tolerance of
//     cn.reference.scalar on exotic_book-shaped put books, and on a book
//     of American calls and puts on which the reference (its only
//     fallback link) is itself within 1e-5 of a converged PSOR;
//   - its outputs are bitwise the same for any participant count, chunk
//     granularity, for W = 4 and W = 8, and whichever
//     options share a lane's pack;
//   - an option the heat-equation transform rejects fails the engine
//     request exactly as it does for cn.reference.scalar.
//
// A failure names the seed that produced it, so it can be replayed alone.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/thread_pool.hpp"
#include "finbench/kernels/cranknicolson.hpp"

using namespace finbench;
namespace cn = kernels::cn;
using engine::Engine;
using engine::PricingRequest;
using engine::PricingResult;

namespace {

constexpr std::uint64_t kSeeds = 20;
constexpr char kPacked[] = "cn.direct_packed.auto";

// Relative error as the registry validates it: |got - want| / max(1, |want|).
double rel_err(double got, double want) {
  if (!std::isfinite(got)) return INFINITY;
  return std::fabs(got - want) / std::max(1.0, std::fabs(want));
}

struct Book {
  std::vector<core::OptionSpec> specs;
  cn::GridSpec grid;
};

// Random books of 9-40 options with skewed maturities (0.05-3 y, most
// short), both exercise styles and dividends 0-6%; `calls` mixes in call
// options. Grids alternate odd and even price counts, so the mirrored
// call's read-out point m-1-mid differs from mid on half the seeds.
Book make_book(std::uint64_t seed, bool calls) {
  std::mt19937_64 rng(seed * 6151 + 7);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  Book b;
  b.grid.num_prices = seed % 2 ? 64 : 65;
  b.grid.num_steps = 48 + static_cast<int>(seed % 3) * 16;
  const std::size_t n = 9 + static_cast<std::size_t>(u01(rng) * 32.0);
  for (std::size_t i = 0; i < n; ++i) {
    core::OptionSpec o;
    o.spot = 70.0 + 60.0 * u01(rng);
    o.strike = 70.0 + 60.0 * u01(rng);
    const double u = u01(rng);
    o.years = 0.05 + 2.95 * u * u * u;
    o.rate = 0.01 + 0.05 * u01(rng);
    o.dividend = 0.06 * u01(rng);
    o.vol = 0.15 + 0.35 * u01(rng);
    o.type = calls && u01(rng) < 0.5 ? core::OptionType::kCall : core::OptionType::kPut;
    o.style = u01(rng) < 0.5 ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
    b.specs.push_back(o);
  }
  return b;
}

// perfbench's exotic_book shape: American and European puts, no
// dividends, 129 prices x 128 steps.
Book exotic_book(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed * 104729 + 3);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  Book b;
  b.grid.num_prices = 129;
  b.grid.num_steps = 128;
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
    b.specs.push_back(o);
  }
  return b;
}

std::vector<double> packed(const Book& b, cn::Width w = cn::Width::kAuto) {
  std::vector<double> out(b.specs.size(), -1.0);
  cn::price_direct_packed(b.specs, b.grid, out, w);
  return out;
}

PricingRequest request_for(const char* id, const Book& b) {
  PricingRequest req;
  req.kernel_id = id;
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(b.specs));
  req.cn_num_prices = b.grid.num_prices;
  req.steps = b.grid.num_steps;
  return req;
}

}  // namespace

TEST(CnDirectPacked, PutBooksMatchTheScalarDirectSolvers) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_book(seed, /*calls=*/false);
    for (const cn::Width w : {cn::Width::kAvx2, cn::Width::kAuto}) {
      const std::vector<double> got = packed(b, w);
      for (std::size_t i = 0; i < b.specs.size(); ++i) {
        const core::OptionSpec& o = b.specs[i];
        const double want = o.style == core::ExerciseStyle::kAmerican
                                ? cn::price_american_brennan_schwartz(o, b.grid).price
                                : cn::price_european_thomas(o, b.grid);
        ASSERT_LE(rel_err(got[i], want), 1e-12)
            << "seed " << seed << " option " << i << " width " << static_cast<int>(w)
            << " got " << got[i] << " want " << want;
      }
    }
  }
}

TEST(CnDirectPacked, MixedBooksMatchConvergedPsor) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Book b = make_book(seed, /*calls=*/true);
    const std::vector<double> got = packed(b);
    cn::GridSpec converged = b.grid;
    converged.epsilon = 1e-24;
    for (std::size_t i = 0; i < b.specs.size(); ++i) {
      const double want = cn::price_reference(b.specs[i], converged).price;
      ASSERT_LE(rel_err(got[i], want), 1e-8)
          << "seed " << seed << " option " << i << " ("
          << (b.specs[i].type == core::OptionType::kCall ? "call" : "put") << ", "
          << (b.specs[i].style == core::ExerciseStyle::kAmerican ? "American" : "European")
          << ") got " << got[i] << " want " << want;
    }
  }
}

TEST(CnDirectPacked, EngineWithinToleranceOfReferenceOnExoticBooks) {
  const engine::VariantInfo* v = engine::Registry::instance().find(kPacked);
  const engine::VariantInfo* ref = engine::Registry::instance().find("cn.reference.scalar");
  ASSERT_NE(v, nullptr);
  ASSERT_NE(ref, nullptr);
  ASSERT_EQ(v->reference_id, ref->id);
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Book b = exotic_book(seed, 48);
    PricingRequest req = request_for(kPacked, b);
    const PricingResult got = eng.price(req);
    ASSERT_TRUE(got.status.ok()) << "seed " << seed << ": " << got.status.to_string();
    PricingRequest rq = request_for(ref->id.c_str(), b);
    PricingResult want;
    ref->run_batch(rq, rq.portfolio, want);
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t i = 0; i < b.specs.size(); ++i) {
      ASSERT_LE(rel_err(got.values[i], want.values[i]), v->tolerance)
          << "seed " << seed << " option " << i << " got " << got.values[i] << " want "
          << want.values[i];
    }
  }
}

TEST(CnDirectPacked, OutputsAreBitwiseInvariantAcrossExecutionShapes) {
  const int nproc = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<std::unique_ptr<engine::ThreadPool>> pools;
  std::vector<std::unique_ptr<Engine>> engines;
  for (int p = 1; p <= nproc; ++p) {
    pools.push_back(std::make_unique<engine::ThreadPool>(p));
    engines.push_back(std::make_unique<Engine>(pools.back().get()));
  }
  const engine::VariantInfo* v = engine::Registry::instance().find(kPacked);
  ASSERT_NE(v, nullptr);
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_book(seed, /*calls=*/true);
    PricingRequest whole = request_for(kPacked, b);
    PricingResult want;
    v->run_batch(whole, whole.portfolio, want);
    ASSERT_EQ(want.values, packed(b)) << "seed " << seed;
    for (std::size_t p = 0; p < engines.size(); ++p) {
      for (const int cpt : {1, 3, 8}) {
        PricingRequest req = request_for(kPacked, b);
        req.chunks_per_thread = cpt;
        PricingResult res;
        engines[p]->price(req, res);
        ASSERT_TRUE(res.status.ok()) << "seed " << seed << ": " << res.status.to_string();
        ASSERT_EQ(res.values.size(), want.values.size());
        for (std::size_t i = 0; i < want.values.size(); ++i) {
          ASSERT_EQ(res.values[i], want.values[i])
              << "seed " << seed << " option " << i << " participants " << p + 1
              << " chunks_per_thread " << cpt;
        }
      }
    }
  }
}

TEST(CnDirectPacked, FourAndEightLanesAgreeBitwise) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_book(seed, /*calls=*/true);
    const std::vector<double> w4 = packed(b, cn::Width::kAvx2);
    const std::vector<double> w8 = packed(b, cn::Width::kAvx512);
    for (std::size_t i = 0; i < b.specs.size(); ++i) {
      ASSERT_EQ(w4[i], w8[i]) << "seed " << seed << " option " << i;
    }
  }
}

TEST(CnDirectPacked, PackedLaneIgnoresItsPackMates) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Book b = make_book(seed, /*calls=*/true);
    const std::vector<double> all = packed(b);
    // Every other option: each lands in a pack with other mates (and the
    // partial pack moves), yet must price bitwise the same.
    for (std::size_t parity = 0; parity < 2; ++parity) {
      Book half;
      half.grid = b.grid;
      for (std::size_t i = parity; i < b.specs.size(); i += 2) half.specs.push_back(b.specs[i]);
      const std::vector<double> got = packed(half);
      for (std::size_t k = 0; k < half.specs.size(); ++k) {
        ASSERT_EQ(got[k], all[parity + 2 * k]) << "seed " << seed << " option " << parity + 2 * k;
      }
    }
    // Alone, an option fills a pack with repeats of itself.
    const std::size_t i = b.specs.size() - 1;
    double alone = 0.0;
    cn::price_direct_packed({&b.specs[i], 1}, b.grid, {&alone, 1});
    ASSERT_EQ(alone, all[i]) << "seed " << seed << " option " << i;
  }
}

// 256 American options alternating call and put, with dividends, on the
// exotic_book grid: the reference's PSOR stops within 1e-5 of converged
// (epsilon 1e-24), and the packed solve, whose only fallback link it is,
// passes its registered band against it. A PSOR stop at epsilon 1e-12
// fails both (up to 3e-4 from converged, 9 options off the band).
TEST(CnDirectPacked, ReferenceConvergesOnAnAmericanCallPutBook) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  Book b;
  b.grid.num_prices = 129;
  b.grid.num_steps = 128;
  for (int i = 0; i < 256; ++i) {
    core::OptionSpec o;
    o.spot = 80.0 + 40.0 * u01(rng);
    o.strike = 80.0 + 40.0 * u01(rng);
    o.years = 0.1 + 2.0 * u01(rng);
    o.rate = 0.01 + 0.05 * u01(rng);
    o.vol = 0.15 + 0.30 * u01(rng);
    o.dividend = 0.06 * u01(rng);
    o.type = i % 2 ? core::OptionType::kPut : core::OptionType::kCall;
    o.style = core::ExerciseStyle::kAmerican;
    b.specs.push_back(o);
  }
  const engine::VariantInfo* v = engine::Registry::instance().find(kPacked);
  const engine::VariantInfo* ref = engine::Registry::instance().find("cn.reference.scalar");
  ASSERT_NE(v, nullptr);
  ASSERT_NE(ref, nullptr);
  PricingRequest rq = request_for(ref->id.c_str(), b);
  PricingResult want;
  ref->run_batch(rq, rq.portfolio, want);
  PricingRequest req = request_for(kPacked, b);
  PricingResult got;
  v->run_batch(req, req.portfolio, got);
  ASSERT_EQ(want.values.size(), b.specs.size());
  ASSERT_EQ(got.values.size(), b.specs.size());
  cn::GridSpec converged = b.grid;
  converged.epsilon = 1e-24;
  for (std::size_t i = 0; i < b.specs.size(); ++i) {
    const double exact = cn::price_reference(b.specs[i], converged).price;
    EXPECT_LE(rel_err(want.values[i], exact), 1e-5)
        << "option " << i << " reference " << want.values[i] << " converged " << exact;
    EXPECT_LE(rel_err(got.values[i], want.values[i]), v->tolerance)
        << "option " << i << " packed " << got.values[i] << " reference " << want.values[i];
  }
}

// |2r/sigma^2| > 60 makes the transformed obstacle overflow, so every CN
// solver rejects the option; the chunk holding it fails through the whole
// fallback chain and only that chunk is NaN'd.
TEST(CnDirectPacked, IllConditionedOptionFailsLikeTheReference) {
  Book b = exotic_book(3, 24);
  b.grid.num_prices = 65;
  b.grid.num_steps = 32;
  const std::size_t bad = 7;
  b.specs[bad].vol = 0.02;
  b.specs[bad].rate = 0.05;  // 2r/sigma^2 = 250
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  PricingResult want, got;
  PricingRequest ref = request_for("cn.reference.scalar", b);
  ref.chunks_per_thread = 3;
  eng.price(ref, want);
  PricingRequest req = request_for(kPacked, b);
  req.chunks_per_thread = 3;
  eng.price(req, got);
  EXPECT_EQ(want.status.code(), robust::StatusCode::kKernelError) << want.status.to_string();
  EXPECT_EQ(got.status.code(), want.status.code()) << got.status.to_string();
  EXPECT_EQ(got.chunks_failed, want.chunks_failed);
  EXPECT_EQ(got.chunks_failed, 1u);
  EXPECT_EQ(got.chunks_degraded, want.chunks_degraded);
  ASSERT_EQ(got.values.size(), b.specs.size());
  EXPECT_TRUE(std::isnan(got.values[bad]));
  EXPECT_TRUE(std::isnan(want.values[bad]));
  // Everything the packed run priced is within tolerance of the reference.
  std::size_t priced = 0;
  for (std::size_t i = 0; i < b.specs.size(); ++i) {
    if (std::isnan(got.values[i]) || std::isnan(want.values[i])) continue;
    ++priced;
    EXPECT_LE(rel_err(got.values[i], want.values[i]), 1e-4) << "option " << i;
  }
  EXPECT_GT(priced, 0u);
}

// A degenerate grid fails the request on both CN ids, through the packed
// variant's fallback to the reference too, instead of crashing or
// returning prices from a grid that was never solved.
TEST(CnDirectPacked, DegenerateGridFailsTheRequestOnBothIds) {
  const Book b = exotic_book(5, 16);
  engine::ThreadPool pool(2);
  Engine eng(&pool);
  for (const char* id : {"cn.reference.scalar", kPacked}) {
    for (const auto [prices, steps] : {std::pair{0, 32}, {1, 32}, {2, 32}, {65, 0}}) {
      PricingRequest req = request_for(id, b);
      req.cn_num_prices = prices;
      req.steps = steps;
      const PricingResult res = eng.price(req);
      EXPECT_FALSE(res.status.ok()) << id << " at " << prices << " x " << steps;
    }
  }
}
