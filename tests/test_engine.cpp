// Tests for the kernel registry and batched pricing engine: id hygiene and
// metadata invariants, registry self-validation, chunked-vs-serial
// equivalence over every variant (the RNG-substream, lattice and path
// adapters must make chunking invisible), and the scheduling knobs.

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/analytic.hpp"
#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/registry.hpp"
#include "finbench/engine/validate.hpp"
#include "finbench/obs/flight_recorder.hpp"
#include "finbench/obs/metrics.hpp"

using namespace finbench;
using engine::Engine;
using engine::PricingRequest;
using engine::PricingResult;
using engine::Registry;

namespace {

constexpr core::Layout kBsLayouts[] = {core::Layout::kBsAos, core::Layout::kBsSoa,
                                       core::Layout::kBsSoaF, core::Layout::kBsBlocked};

// Call/put of every option of a Black–Scholes view, flattened for bitwise
// comparison across layouts and runs.
std::vector<double> bs_outputs(const core::PortfolioView& v) {
  std::vector<double> out;
  out.reserve(2 * v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const core::BsLane e = core::bs_lane(v, i);
    out.push_back(e.call);
    out.push_back(e.put);
  }
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<core::OptionSpec> lattice_workload(std::size_t n, std::uint64_t seed,
                                               bool american = false) {
  core::SingleOptionWorkloadParams p;
  p.style = american ? core::ExerciseStyle::kAmerican : core::ExerciseStyle::kEuropean;
  return core::make_option_workload(n, seed, p);
}

}  // namespace

TEST(Registry, HasTheFullVariantCatalog) {
  const auto& r = Registry::instance();
  EXPECT_GE(r.size(), 20u);  // the CI smoke gate
  // One family per paper exhibit.
  for (const char* id :
       {"bs.intermediate.auto", "binomial.advanced.auto", "mc.optimized_computed.auto",
        "brownian.intermediate.auto", "cn.direct_packed.auto"}) {
    EXPECT_NE(r.find(id), nullptr) << id;
  }
  EXPECT_EQ(r.find("bs.nonexistent.scalar"), nullptr);
}

TEST(Registry, IdsAreWellFormedAndMetadataIsComplete) {
  for (const engine::VariantInfo* v : Registry::instance().all()) {
    // id = "<kernel>.<variant>.<scalar|auto>", with no exception: the
    // scalar references register width 1, every other variant the widest
    // path compiled in (width 0). No lane count is an id: the 4-wide
    // SNB-EP rows are exhibit rows that call the kernels directly, not
    // race candidates.
    EXPECT_EQ(std::count(v->id.begin(), v->id.end(), '.'), 2) << v->id;
    EXPECT_EQ(v->id.rfind(v->kernel + ".", 0), 0u) << v->id;
    const std::string suffix = v->id.substr(v->id.rfind('.') + 1);
    EXPECT_TRUE((suffix == "scalar" && v->width == 1) || (suffix == "auto" && v->width == 0))
        << v->id << " width " << v->width;
    EXPECT_FALSE(v->description.empty()) << v->id;
    EXPECT_FALSE(v->exhibit.empty()) << v->id;
    EXPECT_NE(v->flops_per_item, nullptr) << v->id;
    if (v->reference_id.empty()) {
      EXPECT_EQ(v->level, core::OptLevel::kReference) << v->id;
    } else {
      const engine::VariantInfo* ref = Registry::instance().find(v->reference_id);
      ASSERT_NE(ref, nullptr) << v->id << " links to unknown " << v->reference_id;
      EXPECT_EQ(ref->kernel, v->kernel) << v->id;
      // The bs family legitimately crosses layouts (AOS reference vs SOA /
      // single-precision optimized forms); the validator rebuilds each
      // batch form from one seed. Everyone else must match the reference.
      if (v->kernel != "bs") EXPECT_EQ(ref->layout, v->layout) << v->id;
      EXPECT_GT(v->tolerance, 0.0) << v->id;
    }
    // A fallback link must resolve: engine::fallback_of reads an
    // unregistered id as the end of the chain, so a dangling link would
    // silently drop the rest of it. A failed chunk re-prices in place,
    // so the link shares the variant's family and layout.
    if (!v->fallback_id.empty()) {
      const engine::VariantInfo* fb = Registry::instance().find(v->fallback_id);
      ASSERT_NE(fb, nullptr) << v->id << " falls back to unknown " << v->fallback_id;
      EXPECT_EQ(fb->kernel, v->kernel) << v->id;
      EXPECT_EQ(fb->layout, v->layout) << v->id;
    }
  }
}

TEST(Registry, SelfValidationPasses) {
  for (const auto& rep : engine::validate_all(/*nopt=*/48)) {
    EXPECT_TRUE(rep.ok || rep.skipped) << rep.id << ": " << rep.detail;
  }
}

TEST(Engine, UnknownKernelIdIsAnError) {
  PricingRequest req;
  req.kernel_id = "bs.nonexistent.scalar";
  const PricingResult res = Engine::shared().price(req);
  EXPECT_FALSE(res.status.ok());
  EXPECT_NE(res.status.to_string().find("unknown kernel id"), std::string::npos)
      << res.status.to_string();
}

TEST(Engine, MissingWorkloadIsAnError) {
  PricingRequest req;
  req.kernel_id = "binomial.reference.scalar";  // kSpecs layout, but no specs
  const PricingResult res = Engine::shared().price(req);
  EXPECT_FALSE(res.status.ok());
  EXPECT_FALSE(res.status.to_string().empty());
}

// The outputs of one execution of variant v on a per-variant workload,
// flattened for bitwise comparison: the layout's call/put for a
// Black–Scholes layout (blocked binomial included), values and std errors
// otherwise (paths in their point-major layout).
struct Probe {
  PricingRequest req;
  core::Portfolio pf;  // Black–Scholes layouts: outputs land here
  std::vector<core::OptionSpec> specs;

  Probe(const engine::VariantInfo& v, std::uint64_t seed) {
    req.kernel_id = v.id;
    req.seed = seed;
    req.steps = 64;
    req.npath = 2048;
    req.cn_num_prices = 33;
    req.bridge_depth = 4;
    req.tasks = engine::TaskMode::kOff;
    switch (v.layout) {
      case core::Layout::kSpecs: {
        // Odd sizes leave SIMD tails; every other seed mixes depths.
        specs = lattice_workload(29 + 4 * (seed % 5), seed, !v.european_only);
        req.portfolio = core::view_of(std::span<const core::OptionSpec>(specs));
        if (v.kernel == "binomial" && seed % 2 == 0) req.steps_per_year = 48;
        break;
      }
      case core::Layout::kPaths:
        req.portfolio = core::paths_view(101 + 16 * seed);
        break;
      default:
        // Past kBsMinChunk, so the engine partition has several chunks.
        pf = core::Portfolio::bs(2500 + 37 * seed, v.layout, seed);
        req.portfolio = pf.view();
        break;
    }
  }

  std::vector<double> outputs(const PricingResult& res) const {
    std::vector<double> out = core::is_bs(req.portfolio.layout) ? bs_outputs(req.portfolio)
                                                                  : res.values;
    out.insert(out.end(), res.std_errors.begin(), res.std_errors.end());
    return out;
  }

  // Poison the in-place outputs, so a range nobody priced shows.
  void clear() {
    if (!core::is_bs(req.portfolio.layout)) return;
    for (std::size_t i = 0; i < req.portfolio.size(); ++i) {
      core::set_bs_outputs(req.portfolio, i, -1.0, -1.0);
    }
  }
};

// Chunked execution must be numerically invisible, for every registered
// variant: the serial kernel result (a pool of one), run_batch on pools of
// two and of every hardware thread (and the registry's run_batch on the
// shared pool), and Engine::price at two chunk granularities are
// bitwise-equal. Lattice and PDE kernels are deterministic per option,
// SIMD lane groups stay aligned to the chunk boundaries, and the RNG
// adapters re-base their substreams on the range offset.
TEST(Engine, ChunkedExecutionMatchesWholeBatch) {
  const int nproc = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  engine::ThreadPool one(1), two(2), all(nproc);
  const Engine serial(&one), eng2(&two), eng(&all);
  for (const engine::VariantInfo* v : Registry::instance().all()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const std::string what = v->id + " seed " + std::to_string(seed);
      Probe p(*v, seed);
      p.req.chunks_per_thread = 3;
      PricingResult res;
      p.clear();
      serial.run_batch(*v, p.req, p.req.portfolio, res);
      const std::vector<double> want = p.outputs(res);
      ASSERT_FALSE(want.empty()) << what;
      for (const Engine* e : {&eng2, &eng}) {
        p.clear();
        e->run_batch(*v, p.req, p.req.portfolio, res);
        EXPECT_TRUE(bitwise_equal(p.outputs(res), want))
            << what << ": run_batch on a pool of " << e->pool_size();
      }
      p.clear();
      v->run_batch(p.req, p.req.portfolio, res);
      EXPECT_TRUE(bitwise_equal(p.outputs(res), want)) << what << ": the registry's run_batch";
      for (const int cpt : {1, 3}) {
        p.req.chunks_per_thread = cpt;
        p.clear();
        eng.price(p.req, res);
        ASSERT_TRUE(res.status.ok()) << what << ": " << res.status.to_string();
        EXPECT_TRUE(bitwise_equal(p.outputs(res), want))
            << what << ": Engine::price, chunks_per_thread " << cpt;
      }
    }
  }
}

TEST(Engine, HeterogeneousStepsPerYearPricesEachExpiryAtItsOwnDepth) {
  const auto workload = lattice_workload(9, 3);
  PricingRequest req;
  req.kernel_id = "binomial.reference.scalar";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.steps_per_year = 64;
  const PricingResult res = Engine::shared().price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();

  // Longer-dated options get deeper lattices, so the result must differ
  // from a fixed-depth batch for at least one option.
  PricingRequest fixed = req;
  fixed.steps_per_year = 0;
  fixed.scratch.reset();
  const PricingResult res_fixed = Engine::shared().price(fixed);
  ASSERT_TRUE(res_fixed.status.ok());
  bool any_diff = false;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    any_diff = any_diff || res.values[i] != res_fixed.values[i];
  }
  EXPECT_TRUE(any_diff);
}

// Work that used to be one whole-batch kernel call — path construction,
// the blocked binomial family — runs as ranges like every other variant:
// one chunk status and one flight record per range, covering [0, n)
// without gaps. A one-option specs batch is one chunk. The blocked
// binomial family prices its own layout only: another Black–Scholes
// layout is refused, not read as an empty view.
TEST(Engine, WholeBatchWorkloadsRunAsRanges) {
  core::Portfolio blocked = core::Portfolio::bs(4096, core::Layout::kBsBlocked, 5);
  core::Portfolio aos = core::Portfolio::bs(64, core::Layout::kBsAos, 5);
  const auto one = lattice_workload(1, 7);
  struct Case {
    const char* id;
    core::PortfolioView view;
    bool one_chunk;
  };
  const Case cases[] = {
      {"brownian.intermediate.auto", core::paths_view(256), false},
      {"binomial.blocked.auto", blocked.view(), false},
      {"binomial.intermediate.auto", core::view_of(std::span<const core::OptionSpec>(one)), true},
  };
  engine::ThreadPool pool(4);
  const Engine eng(&pool);
  for (const Case& c : cases) {
    const std::string what =
        std::string(c.id) + " on " + std::string(core::to_string(c.view.layout));
    PricingRequest req;
    req.kernel_id = c.id;
    req.portfolio = c.view;
    req.steps = 32;
    const PricingResult res = eng.price(req);
    ASSERT_EQ(res.status.code(), robust::StatusCode::kOk) << what << ": " << res.status.to_string();
    EXPECT_EQ(res.items, c.view.size()) << what;
    if (c.one_chunk) {
      EXPECT_EQ(res.chunk_status.size(), 1u) << what;
    } else {
      EXPECT_GT(res.chunk_status.size(), 1u) << what;
    }
    for (std::uint8_t st : res.chunk_status) {
      EXPECT_EQ(static_cast<engine::ChunkStatus>(st), engine::ChunkStatus::kOk) << what;
    }
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (const auto& r : obs::flight_recorder().snapshot()) {
      if (r.request_id == res.request_id) ranges.emplace_back(r.begin, r.end);
    }
    ASSERT_EQ(ranges.size(), res.chunk_status.size()) << what;
    std::sort(ranges.begin(), ranges.end());
    std::size_t next = 0;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, next) << what;
      next = end;
    }
    EXPECT_EQ(next, c.view.size()) << what;
  }

  PricingRequest neg;
  neg.kernel_id = "binomial.blocked.auto";
  neg.portfolio = aos.view();
  EXPECT_EQ(Engine::shared().price(neg).status.code(), robust::StatusCode::kInvalidArgument);
}

// A blocked binomial book is lattice work, not a bandwidth-bound BS
// chunk: it is split across the whole pool like any specs batch (not
// held to the Black–Scholes cache-sized minimum of 1024 options per
// chunk), and the split leaves the outputs bit for bit unchanged.
TEST(Engine, BlockedBinomialBookSpansThePoolBitwiseInvariantly) {
  constexpr std::size_t kN = 1024;
  engine::ThreadPool pool4(4), pool1(1);
  std::vector<std::vector<double>> outs;
  for (engine::ThreadPool* pool : {&pool4, &pool1}) {
    core::Portfolio book = core::Portfolio::bs(kN, core::Layout::kBsBlocked, 31);
    const Engine eng(pool);
    PricingRequest req;
    req.kernel_id = "binomial.blocked.auto";
    req.portfolio = book.view();
    req.steps = 64;
    const PricingResult res = eng.price(req);
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    if (pool == &pool4) EXPECT_GE(res.chunk_status.size(), 4u);
    outs.push_back(bs_outputs(book.view()));
  }
  EXPECT_TRUE(bitwise_equal(outs[0], outs[1]));
}

// Black–Scholes batches price in place: prices land in the request's
// batch arrays and values stays empty.
TEST(Engine, BatchLayoutPricesIntoTheBatchArrays) {
  core::Portfolio book = core::Portfolio::bs(512, core::Layout::kBsSoa, 21);
  const core::BsSoaView soa = book.view().soa;
  PricingRequest req;
  req.kernel_id = "bs.intermediate.auto";
  req.portfolio = book.view();
  const PricingResult res = Engine::shared().price(req);
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.items, 512u);
  EXPECT_TRUE(res.values.empty());
  // Spot-check the outputs actually landed in the batch arrays.
  double sum = 0.0;
  for (double c : soa.call) sum += c;
  EXPECT_GT(sum, 0.0);
}

TEST(Engine, RepeatedPricingOfOneRequestIsDeterministic) {
  const auto workload = lattice_workload(8, 17);
  PricingRequest req;
  req.kernel_id = "mc.optimized_computed.auto";
  req.portfolio = core::view_of(std::span<const core::OptionSpec>(workload));
  req.npath = 4096;
  const PricingResult a = Engine::shared().price(req);
  const PricingResult b = Engine::shared().price(req);  // scratch reused
  ASSERT_TRUE(a.status.ok() && b.status.ok());
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) EXPECT_EQ(a.values[i], b.values[i]) << i;
}

// The Black–Scholes chunk pipeline must be invisible in the outputs: every
// registered bs variant, priced from every BS layout (native or
// negotiated), gives bit-identical prices for any participant count and
// chunk granularity — including books smaller than one chunk and sizes
// that leave a ragged SIMD tail.
TEST(Engine, BsChunkedOutputsAreBitwiseInvariantAcrossParticipantsAndChunkSizes) {
  const int nproc = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<std::unique_ptr<engine::ThreadPool>> pools;
  for (int p = 1; p <= nproc; ++p) pools.push_back(std::make_unique<engine::ThreadPool>(p));

  for (const engine::VariantInfo* v : Registry::instance().all()) {
    if (v->kernel != "bs") continue;
    for (const core::Layout layout : kBsLayouts) {
      for (const std::size_t n : {std::size_t{100}, std::size_t{4999}, std::size_t{20011}}) {
        std::vector<double> want;
        for (const auto& pool : pools) {
          Engine eng(pool.get());
          for (const int cpt : {1, 3, 8}) {
            core::Portfolio pf = core::Portfolio::bs(n, layout, 41);
            PricingRequest req;
            req.kernel_id = v->id;
            req.portfolio = pf.view();
            req.chunks_per_thread = cpt;
            const PricingResult res = eng.price(req);
            ASSERT_EQ(res.status.code(), robust::StatusCode::kOk)
                << v->id << " " << core::to_string(layout) << ": " << res.status.to_string();
            ASSERT_EQ(res.items, n);
            ASSERT_FALSE(res.chunk_status.empty());
            const std::vector<double> got = bs_outputs(pf.view());
            if (want.empty()) {
              want = got;
              continue;
            }
            EXPECT_TRUE(bitwise_equal(got, want))
                << v->id << " from " << core::to_string(layout) << ", n=" << n << ", "
                << pool->size() << " participant(s), chunks_per_thread=" << cpt << " ("
                << res.chunk_status.size() << " chunks)";
          }
        }
      }
    }
  }
}

// A book's continuous dividend yield reaches every Black–Scholes variant:
// priced from an AOS book with q != 0 (negotiated into the variant's own
// layout where that differs), each runs its own kernel (no fallback chunk,
// no closed-form repair) and agrees with the closed form within its
// registered tolerance.
TEST(Engine, EveryBsVariantPricesTheDividendOfANegotiatedAosBook) {
  for (const engine::VariantInfo* v : Registry::instance().all()) {
    if (v->kernel != "bs") continue;
    core::Portfolio book = core::Portfolio::bs(4096, core::Layout::kBsAos, 7);
    core::PortfolioView view = book.view();
    core::set_bs_scalars(view, {0.05, 0.2, 0.05});
    PricingRequest req;
    req.kernel_id = v->id;
    req.portfolio = view;
    const PricingResult res = Engine::shared().price(req);
    ASSERT_TRUE(res.status.ok()) << v->id << ": " << res.status.to_string();
    ASSERT_FALSE(res.status.degraded()) << v->id << ": " << res.status.to_string();
    double worst = 0.0;
    for (const core::BsOptionAos& o : view.aos.options) {
      const core::BsPrice want = core::black_scholes(o.spot, o.strike, o.years, 0.05, 0.2, 0.05);
      worst = std::max({worst, std::fabs(o.call - want.call) / std::max(1.0, std::fabs(want.call)),
                        std::fabs(o.put - want.put) / std::max(1.0, std::fabs(want.put))});
    }
    EXPECT_LE(worst, v->tolerance) << v->id;
  }
}

// chunks_per_thread is a plain int: at INT_MAX the partition count
// (participants x chunks_per_thread) must not overflow, and the book
// prices as it does at one chunk per thread.
TEST(Engine, IntMaxChunksPerThreadPricesLikeOneChunkPerThread) {
  engine::ThreadPool pool(4);
  const Engine eng(&pool);
  for (const bool bs : {true, false}) {
    const char* id = bs ? "bs.blocked.auto" : "binomial.intermediate.auto";
    std::vector<double> want;
    for (const int cpt : {1, INT_MAX}) {
      core::Portfolio bs_book = core::Portfolio::bs(5000, core::Layout::kBsAos, 47);
      const auto specs = lattice_workload(24, 5);
      PricingRequest req;
      req.kernel_id = id;
      req.portfolio =
          bs ? bs_book.view() : core::view_of(std::span<const core::OptionSpec>(specs));
      req.steps = 64;
      req.chunks_per_thread = cpt;
      const PricingResult res = eng.price(req);
      ASSERT_TRUE(res.status.ok()) << id << " cpt=" << cpt << ": " << res.status.to_string();
      const std::vector<double> got = bs ? bs_outputs(req.portfolio) : res.values;
      if (want.empty()) want = got;
      else EXPECT_TRUE(bitwise_equal(got, want)) << id;
    }
  }
}

// A request reused across an in-place market tick must price the new
// inputs, also when its variant negotiates a layout: the engine re-reads
// the caller's arrays every pricing.
TEST(Engine, NegotiatedRequestReusedAcrossAnInPlaceTickPricesTheNewSpots) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);
  for (const char* id : {"bs.intermediate.auto", "bs.blocked.auto", "bs.reference.scalar"}) {
    core::Portfolio book = core::Portfolio::bs(5000, core::Layout::kBsAos, 43);
    core::Portfolio fresh_book = core::Portfolio::bs(5000, core::Layout::kBsAos, 43);
    PricingRequest req;
    req.kernel_id = id;
    req.portfolio = book.view();
    PricingResult res;
    eng.price(req, res);
    ASSERT_TRUE(res.status.ok()) << id << ": " << res.status.to_string();
    const std::vector<double> before = bs_outputs(book.view());

    for (auto* pf : {&book, &fresh_book}) {
      for (core::BsOptionAos& o : pf->view().aos.options) o.spot *= 1.01;
    }
    eng.price(req, res);  // same request, same arrays, new spots
    ASSERT_TRUE(res.status.ok()) << id << ": " << res.status.to_string();

    PricingRequest fresh;
    fresh.kernel_id = id;
    fresh.portfolio = fresh_book.view();
    ASSERT_TRUE(eng.price(fresh).status.ok()) << id;
    const std::vector<double> after = bs_outputs(book.view());
    EXPECT_FALSE(bitwise_equal(after, before)) << id << " kept pricing the old spots";
    EXPECT_TRUE(bitwise_equal(after, bs_outputs(fresh_book.view()))) << id;
  }
}

// One GroupScratch prices specs and Black–Scholes groups of the same fused
// size in turn (a server's dispatcher does), at the same granularity. Each
// family must get its own partition: the BS group one inline chunk with
// solo-identical prices, the lattice group its cost-weighted chunks again.
TEST(Engine, GroupScratchKeepsBlackScholesAndSpecsPartitionsApart) {
  engine::ThreadPool pool(4);
  Engine eng(&pool);
  constexpr std::size_t kMembers = 2, kPer = 128;
  std::vector<std::vector<core::OptionSpec>> books;
  std::vector<core::Portfolio> bs_books, solo_books;
  PricingRequest specs_req[kMembers], bs_req[kMembers];
  PricingResult specs_res[kMembers], bs_res[kMembers];
  engine::GroupJob specs_group[kMembers], bs_group[kMembers];
  for (std::size_t i = 0; i < kMembers; ++i) {
    books.push_back(lattice_workload(kPer, 70 + i, /*american=*/true));
    bs_books.push_back(core::Portfolio::bs(kPer, core::Layout::kBsAos, 80 + i));
    solo_books.push_back(core::Portfolio::bs(kPer, core::Layout::kBsAos, 80 + i));
  }
  for (std::size_t i = 0; i < kMembers; ++i) {
    specs_req[i].kernel_id = "binomial.intermediate.auto";
    specs_req[i].steps = 64;
    specs_req[i].portfolio = core::view_of(std::span<const core::OptionSpec>(books[i]));
    bs_req[i].kernel_id = "bs.blocked_fused_sp.auto";
    bs_req[i].portfolio = bs_books[i].view();
    specs_group[i] = {&specs_req[i], &specs_res[i]};
    bs_group[i] = {&bs_req[i], &bs_res[i]};
  }
  ASSERT_TRUE(eng.fusable(specs_req[0], specs_req[1]));
  ASSERT_TRUE(eng.fusable(bs_req[0], bs_req[1]));

  engine::GroupScratch fresh;
  eng.price_group(specs_group, fresh);
  const std::size_t specs_chunks = fresh.fused_res.chunk_status.size();
  ASSERT_GT(specs_chunks, 1u);

  engine::GroupScratch gs;
  const auto price_bs_group = [&] {
    eng.price_group(bs_group, gs);
    EXPECT_EQ(gs.fused_res.chunk_status.size(), 1u);
    for (std::size_t i = 0; i < kMembers; ++i) {
      ASSERT_TRUE(bs_res[i].status.ok()) << bs_res[i].status.to_string();
      PricingRequest solo;
      solo.kernel_id = bs_req[i].kernel_id;
      solo.portfolio = solo_books[i].view();
      ASSERT_TRUE(eng.price(solo).status.ok());
      EXPECT_TRUE(
          bitwise_equal(bs_outputs(bs_books[i].view()), bs_outputs(solo_books[i].view())))
          << "member " << i;
    }
  };
  price_bs_group();
  eng.price_group(specs_group, gs);
  EXPECT_EQ(gs.fused_res.chunk_status.size(), specs_chunks);
  price_bs_group();
}

// Coalesced pricing equals solo pricing bit for bit for every variant on
// a fusable layout (specs, AOS, SOA, SOA-F), with members of unequal
// sizes that are not multiples of any SIMD width: the fused book is
// assembled by copy_inputs into each member's range, priced once, and
// scattered back. Monte Carlo keys its RNG substreams by batch index, so
// it never fuses.
TEST(Engine, FusedGroupEqualsSoloForEveryFusableVariant) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);
  constexpr std::size_t kBsSizes[] = {130, 67, 1100};  // 1297: two BS chunks
  constexpr std::size_t kSpecsSizes[] = {17, 9, 38};
  constexpr std::size_t kMembers = std::size(kBsSizes);
  int fused = 0;
  for (const engine::VariantInfo* v : Registry::instance().all()) {
    const core::Layout layout = v->layout;
    if (layout == core::Layout::kPaths || layout == core::Layout::kBsBlocked) continue;
    const bool specs = layout == core::Layout::kSpecs;
    std::vector<core::Portfolio> fused_books, solo_books;
    PricingRequest req[kMembers];
    PricingResult res[kMembers];
    engine::GroupJob group[kMembers];
    for (std::size_t i = 0; i < kMembers; ++i) {
      for (auto* books : {&fused_books, &solo_books}) {
        books->push_back(specs ? core::Portfolio::specs(kSpecsSizes[i], 90 + i)
                               : core::Portfolio::bs(kBsSizes[i], layout, 90 + i));
      }
    }
    for (std::size_t i = 0; i < kMembers; ++i) {
      req[i].kernel_id = v->id;
      req[i].steps = 64;
      req[i].cn_num_prices = 65;
      req[i].npath = 1024;
      req[i].portfolio = fused_books[i].view();
      group[i] = {&req[i], &res[i]};
    }
    if (v->kernel == "mc") {
      EXPECT_FALSE(eng.fusable(req[0], req[1])) << v->id;
      continue;
    }
    for (std::size_t i = 1; i < kMembers; ++i) ASSERT_TRUE(eng.fusable(req[0], req[i])) << v->id;
    engine::GroupScratch gs;
    eng.price_group(group, gs);
    for (std::size_t i = 0; i < kMembers; ++i) {
      ASSERT_TRUE(res[i].status.ok()) << v->id << " member " << i << ": "
                                      << res[i].status.to_string();
      PricingRequest solo = req[i];
      solo.scratch.reset();
      solo.portfolio = solo_books[i].view();
      const PricingResult want = eng.price(solo);
      ASSERT_TRUE(want.status.ok()) << v->id;
      EXPECT_TRUE(specs ? bitwise_equal(res[i].values, want.values)
                        : bitwise_equal(bs_outputs(fused_books[i].view()),
                                        bs_outputs(solo_books[i].view())))
          << v->id << " member " << i;
    }
    ++fused;
  }
  EXPECT_GE(fused, 11);  // every non-MC variant on a fusable layout
}

// One fused batch carries one set of shared scalars: members that differ
// in rate, vol or dividend never fuse, on any Black–Scholes layout
// (lane-blocked members never fuse at all).
TEST(Engine, FusableRefusesMembersWithDifferentSharedScalars) {
  Engine& eng = Engine::shared();
  struct Case {
    core::Layout layout;
    const char* id;
  };
  for (const Case c : {Case{core::Layout::kBsAos, "bs.blocked_fused_sp.auto"},
                       Case{core::Layout::kBsSoa, "bs.intermediate.auto"},
                       Case{core::Layout::kBsSoaF, "bs.intermediate_sp.auto"},
                       Case{core::Layout::kBsBlocked, "bs.blocked.auto"}}) {
    core::Portfolio pa = core::Portfolio::bs(64, c.layout, 1);
    core::Portfolio pb = core::Portfolio::bs(96, c.layout, 2);
    PricingRequest a, b;
    a.kernel_id = b.kernel_id = c.id;
    a.portfolio = pa.view();
    b.portfolio = pb.view();
    const bool fusable_layout = c.layout != core::Layout::kBsBlocked;
    EXPECT_EQ(eng.fusable(a, b), fusable_layout) << c.id;
    const core::BsScalars base = core::bs_scalars(a.portfolio);
    for (int field = 0; field < 3; ++field) {
      if (field == 2 && c.layout == core::Layout::kBsSoaF) continue;  // no dividend
      core::BsScalars s = base;
      (field == 0 ? s.rate : field == 1 ? s.vol : s.dividend) += 0.015625;
      core::set_bs_scalars(b.portfolio, s);
      EXPECT_FALSE(eng.fusable(a, b)) << c.id << " scalar " << field;
      EXPECT_FALSE(eng.fusable(b, a)) << c.id << " scalar " << field;
    }
    core::set_bs_scalars(b.portfolio, base);
    EXPECT_EQ(eng.fusable(a, b), fusable_layout) << c.id;
  }
}

// --- The request's streamed-normals cache -------------------------------------
// A repriced request reuses its Scratch: the cached normals (and the
// bridge's lane-blocked copy) must follow the request's seed and size.

namespace {

// Values then standard errors, compared bit for bit.
std::vector<std::uint64_t> result_bits(const PricingResult& res) {
  std::vector<std::uint64_t> out;
  for (double v : res.values) out.push_back(std::bit_cast<std::uint64_t>(v));
  for (double v : res.std_errors) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

// The same request priced on a fresh Scratch.
PricingResult price_fresh(const PricingRequest& req) {
  PricingRequest fresh = req;
  fresh.scratch.reset();
  return Engine::shared().price(fresh);
}

}  // namespace

TEST(NormalsCache, ReseededRequestPricesLikeAFreshOne) {
  const auto specs = core::make_option_workload(16, 21);
  for (const char* id : {"mc.reference_stream.scalar", "mc.optimized_stream.auto",
                         "brownian.reference.scalar", "brownian.intermediate.auto"}) {
    PricingRequest req;
    req.kernel_id = id;
    req.portfolio = std::string(id).starts_with("mc.")
                        ? core::view_of(std::span<const core::OptionSpec>(specs))
                        : core::paths_view(64);
    req.npath = 1000;
    req.bridge_depth = 4;
    req.seed = 1;
    ASSERT_TRUE(Engine::shared().price(req).status.ok()) << id;
    req.seed = 2;
    const PricingResult again = Engine::shared().price(req);
    const PricingResult fresh = price_fresh(req);
    ASSERT_TRUE(again.status.ok() && fresh.status.ok()) << id;
    EXPECT_EQ(result_bits(again), result_bits(fresh)) << id;
  }
}

TEST(NormalsCache, FewerBridgePathsPriceLikeAFreshRequest) {
  PricingRequest req;
  req.kernel_id = "brownian.intermediate.auto";
  req.bridge_depth = 3;
  req.portfolio = core::paths_view(16);
  ASSERT_TRUE(Engine::shared().price(req).status.ok());
  req.portfolio = core::paths_view(13);
  const PricingResult again = Engine::shared().price(req);
  const PricingResult fresh = price_fresh(req);
  ASSERT_TRUE(again.status.ok() && fresh.status.ok());
  EXPECT_EQ(again.values.size(), 13u * 9u);
  EXPECT_EQ(result_bits(again), result_bits(fresh));
}
