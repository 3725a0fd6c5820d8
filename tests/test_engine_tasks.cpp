// Numerical-invisibility tests for the nested fork-join task layer: when
// the engine decomposes work *inside* a single option (banded binomial
// levels, MC path blocks), the decomposition may only change who
// computes, never what is computed.
//
//   - banded binomial segment reduction is bitwise-equal to the scalar
//     reference lattice, serial or tasked, at any depth/segmentation,
//   - a mixed-expiry binomial batch priced through the engine with tasks
//     on is bitwise-equal to the same batch with tasks off,
//   - a fused group (Engine::price_group) runs the task mode its members
//     asked for,
//   - tasked MC path blocks are deterministic run-to-run for a fixed
//     split (bitwise vs the flat sweep is explicitly NOT promised — the
//     reduction tree differs — so that check is a tolerance check).

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/core/portfolio.hpp"
#include "finbench/core/workload.hpp"
#include "finbench/engine/engine.hpp"
#include "finbench/engine/thread_pool.hpp"
#include "finbench/kernels/binomial.hpp"
#include "finbench/obs/metrics.hpp"

using namespace finbench;
using engine::Engine;
using engine::PricingRequest;
using engine::PricingResult;
using engine::TaskMode;

namespace {

std::uint64_t tasks_spawned() {
  for (const auto& [name, v] : obs::snapshot_metrics().counters) {
    if (name == "engine.tasks.spawned") return v;
  }
  return 0;
}

}  // namespace

// --- Banded binomial: kernel-level bitwise equality --------------------------

TEST(EngineTasks, BandedBinomialMatchesReferenceBitwise) {
  namespace banded = kernels::binomial::banded;
  const auto opts = core::make_option_workload(6, 17);
  // Depths straddling the band/segment boundaries, including ones that
  // leave ragged final bands and odd segment tails.
  for (const int steps : {512, 777, 1024, 2048}) {
    const std::size_t lat = static_cast<std::size_t>(steps) + 1;
    std::vector<double> lattice(2 * lat), work(static_cast<std::size_t>(steps));
    std::span<double> ws{work};
    for (const core::OptionSpec& opt : opts) {
      double ref = 0.0;
      kernels::binomial::price_reference({&opt, 1}, steps, {&ref, 1}, nullptr);
      const double got = banded::price_one_banded(opt, steps, lattice,
                                                  banded::serial_segment_runner, &ws);
      EXPECT_EQ(got, ref) << "steps=" << steps;  // bitwise, not near
    }
  }
}

// --- Engine: mixed-expiry binomial batch, tasks on == tasks off --------------

TEST(EngineTasks, MixedExpiryBinomialBatchBitwiseEqualTaskedVsFlat) {
  auto specs = core::make_option_workload(64, 21);  // European by default
  // Maturity-sorted book: the shape the per-option steps ramp makes most
  // skewed, and the one the task layer exists to balance.
  std::sort(specs.begin(), specs.end(),
            [](const core::OptionSpec& a, const core::OptionSpec& b) {
              return a.years < b.years;
            });
  core::Portfolio pf = core::Portfolio::specs(std::span<const core::OptionSpec>(specs));
  PricingRequest req;
  req.kernel_id = "binomial.reference.scalar";
  req.portfolio = pf.view();
  req.steps_per_year = 512;  // years up to 3.0 -> depths up to ~1536

  // At least one option must clear the task threshold or this test
  // exercises nothing.
  int deep = 0;
  for (const auto& o : specs) {
    if (static_cast<int>(o.years * req.steps_per_year) >=
        kernels::binomial::banded::kMinTaskSteps) {
      ++deep;
    }
  }
  ASSERT_GT(deep, 0);

  engine::ThreadPool pool(4);
  Engine eng(&pool);

  req.tasks = TaskMode::kOff;
  PricingResult flat;
  eng.price(req, flat);
  ASSERT_TRUE(flat.status.ok()) << flat.status.to_string();

  const std::uint64_t spawned_before = tasks_spawned();
  req.tasks = TaskMode::kOn;
  PricingResult tasked;
  eng.price(req, tasked);
  ASSERT_TRUE(tasked.status.ok()) << tasked.status.to_string();
  EXPECT_GT(tasks_spawned(), spawned_before) << "tasked run spawned no tasks";

  ASSERT_EQ(tasked.values.size(), flat.values.size());
  for (std::size_t i = 0; i < flat.values.size(); ++i) {
    EXPECT_EQ(tasked.values[i], flat.values[i]) << "option " << i;  // bitwise
  }
}

// --- Engine::price_group: a fused group runs its members' task mode ----------

// A coalesced group prices as one fused request, which must carry the task
// mode its members asked for: tasks = kOff stays flat on a pool of two,
// where kAuto would turn tasks on.
TEST(EngineTasks, FusedGroupRunsItsMembersTaskMode) {
  engine::ThreadPool pool(2);
  Engine eng(&pool);
  constexpr std::size_t kMembers = 2;
  std::vector<core::OptionSpec> books[kMembers];
  PricingRequest reqs[kMembers];
  PricingResult results[kMembers];
  engine::GroupJob group[kMembers];
  int deep = 0;
  for (std::size_t m = 0; m < kMembers; ++m) {
    books[m] = core::make_option_workload(16, 40 + m);  // European by default
    reqs[m].kernel_id = "binomial.reference.scalar";  // splits deep Europeans when tasked
    reqs[m].portfolio = core::view_of(std::span<const core::OptionSpec>(books[m]));
    reqs[m].steps_per_year = 512;  // years up to 3.0 -> depths up to ~1536
    reqs[m].tasks = TaskMode::kOff;
    group[m] = {&reqs[m], &results[m]};
    for (const auto& o : books[m]) {
      if (static_cast<int>(o.years * reqs[m].steps_per_year) >=
          kernels::binomial::banded::kMinTaskSteps) {
        ++deep;
      }
    }
  }
  ASSERT_GT(deep, 0);
  ASSERT_TRUE(eng.fusable(reqs[0], reqs[1]));

  engine::GroupScratch gs;
  const std::uint64_t before = tasks_spawned();
  eng.price_group(group, gs);
  for (const PricingResult& r : results) ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(tasks_spawned(), before) << "a tasks = kOff group spawned intra-option tasks";

  // The same group asking for tasks spawns them, so the check above can
  // tell the two modes apart.
  for (PricingRequest& r : reqs) r.tasks = TaskMode::kOn;
  const std::uint64_t before_on = tasks_spawned();
  eng.price_group(group, gs);
  for (const PricingResult& r : results) ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_GT(tasks_spawned(), before_on) << "a tasks = kOn group spawned no tasks";
}

// --- MC: tasked path blocks are deterministic, and close to the flat sweep ---

TEST(EngineTasks, McTaskedPathBlocksDeterministicAndConsistent) {
  const auto specs = core::make_option_workload(16, 41);
  core::Portfolio pf = core::Portfolio::specs(std::span<const core::OptionSpec>(specs));
  PricingRequest req;
  req.kernel_id = "mc.optimized_stream.auto";
  req.portfolio = pf.view();
  req.npath = 32768;  // >= 2 * kMcTaskBlock: the tasked split engages

  engine::ThreadPool pool(4);
  Engine eng(&pool);

  req.tasks = TaskMode::kOn;
  PricingResult a, b;
  eng.price(req, a);
  eng.price(req, b);
  ASSERT_TRUE(a.status.ok()) << a.status.to_string();
  ASSERT_TRUE(b.status.ok()) << b.status.to_string();
  ASSERT_EQ(a.values.size(), specs.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], b.values[i]) << "tasked MC not deterministic at option " << i;
  }

  // The block split changes the reduction tree, so flat vs tasked is a
  // tolerance comparison — but a tight one: same payoffs, same normals.
  req.tasks = TaskMode::kOff;
  PricingResult flat;
  eng.price(req, flat);
  ASSERT_TRUE(flat.status.ok()) << flat.status.to_string();
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_NEAR(a.values[i], flat.values[i], 1e-9 * (1.0 + std::abs(flat.values[i])));
  }
}
