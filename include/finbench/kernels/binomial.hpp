// finbench/kernels/binomial.hpp
//
// Kernel 2: 1D binomial-tree option pricing (paper Sec. IV-B, Fig. 5).
// Cox–Ross–Rubinstein lattice with N time steps; the backward reduction
// costs ~3·N(N+1)/2 flops per option.
//
// Variants (paper's stacked-bar levels):
//   reference     — Lis. 2: per-option scalar reduction, inner j-loop
//   basic         — reference + pragmas: inner-loop autovectorization
//   intermediate  — SIMD across options: one option per lane (Vec classes);
//                   every access is aligned and full-width. Mixed-depth
//                   batches pack options of nearby depth (price_packed)
//   advanced      — intermediate + the paper's novel register-tiling
//                   scheme (Lis. 3): a TS-deep tile lives in the register
//                   file, each Call value is read/written once per TS time
//                   steps instead of once per step. Packs holding American
//                   lanes tile too, each tile slot carrying its level's
//                   node spots (price_packed_tiled)
//   advanced_unrolled — advanced + manual unrolling of the tile loop (the
//                   Fig. 5 "Basic (Unrolled)" increment that helps in-order
//                   KNC cores)
//
// American exercise is supported by every variant except basic and the
// blocked family. The paper prices European; American is the natural
// extension and is used to validate Crank–Nicolson. The SIMD variants
// skip the exercise test of a pack of American puts at the nodes where
// no lane's spot can be below its strike (detail::exercise_cut).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "finbench/core/option.hpp"
#include "finbench/vecmath/array_math.hpp"

namespace finbench::core {
class ScratchPool;  // finbench/core/scratch_pool.hpp
}

namespace finbench::kernels::binomial {

using vecmath::Width;

// ~3 flops per lattice node.
inline double flops_per_option(int steps) {
  return 3.0 * steps * (steps + 1) / 2.0;
}

// Per-worker lattice scratch each variant needs at width W (the widest
// shipped W is 8): engines size their scratch pool with this so repeated
// pricings never touch the heap.
inline std::size_t lattice_doubles(int steps, int width = 8) {
  return static_cast<std::size_t>(steps + 1) * static_cast<std::size_t>(width);
}

// Price a single option (any style); the building block of `reference`.
// The span overload reduces through caller-provided lattice storage of at
// least steps+1 doubles (no allocation); the plain overload allocates.
double price_one_reference(const core::OptionSpec& opt, int steps);
double price_one_reference(const core::OptionSpec& opt, int steps, std::span<double> lattice);

// Every batch variant leases its per-worker lattice from `scratch` when a
// pool with room is supplied; a null (or exhausted) pool falls back to a
// local aligned allocation, preserving standalone use.
void price_reference(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                     core::ScratchPool* scratch = nullptr);
void price_basic(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                 core::ScratchPool* scratch = nullptr);
void price_intermediate(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                        Width w = Width::kAuto, core::ScratchPool* scratch = nullptr);
// Any exercise style: price_packed_tiled with every depth `steps`, bitwise
// equal to price_intermediate.
void price_advanced(std::span<const core::OptionSpec> opts, int steps, std::span<double> out,
                    Width w = Width::kAuto, core::ScratchPool* scratch = nullptr);
// price_advanced with its European tile loop fully unrolled; bitwise
// equal to price_advanced.
void price_advanced_unrolled(std::span<const core::OptionSpec> opts, int steps,
                             std::span<double> out, Width w = Width::kAuto,
                             core::ScratchPool* scratch = nullptr);

// --- Depth-packed lattices (mixed-depth batches) ----------------------------
// Books whose options need different lattice depths (depth = T x steps per
// year) still vectorize across options: options of nearby depth share a
// pack of W SIMD lanes, and the backward induction starts at the pack's
// deepest level. A lane's leaves are written in when the induction reaches
// its own depth, and each lane keeps its own u/d/p and early-exercise
// test, so every output depends on its own option alone — bitwise the same
// whichever options share its pack, however a caller splits the batch,
// and on any thread count. The pack-mates' depth difference is the only
// waste, which sorting by depth keeps small.

// Lattice depth of an option in a mixed-depth batch: T x steps_per_year
// steps, at least 16.
inline int depth_for(const core::OptionSpec& o, int steps_per_year) {
  return std::max(16, static_cast<int>(o.years * steps_per_year));
}

// Sort key of option `index` (< 2^32) priced over a `steps`-deep lattice:
// its class on top (an American bit, then a call bit), depth below it and
// index in the low word, so sorting keys sorts each class (European puts,
// European calls, American puts, American calls) by depth. Packs never
// span two classes: European packs skip the exercise test, and put packs
// skip it wherever no lane can exercise.
inline std::uint64_t depth_key(int steps, const core::OptionSpec& o, std::size_t index) {
  const std::uint64_t american = o.style == core::ExerciseStyle::kAmerican ? 1 : 0;
  const std::uint64_t call = o.type == core::OptionType::kCall ? 1 : 0;
  return american << 63 | call << 62 | static_cast<std::uint64_t>(steps) << 32 |
         static_cast<std::uint32_t>(index);
}
inline int key_steps(std::uint64_t key) { return static_cast<int>(key >> 32 & 0x3fffffffu); }
inline unsigned key_class(std::uint64_t key) { return static_cast<unsigned>(key >> 62); }
inline std::size_t key_index(std::uint64_t key) { return key & 0xffffffffu; }

// Lanes per pack at width w: the engine plans its packs at this width.
inline int pack_lanes(Width w = Width::kAuto) { return simd::lanes<double>(w); }

// Prices opts[i] over a depth_for(opts[i], steps_per_year)-deep lattice
// into out[i], in pack order: up to W consecutive options of one class
// (depth_key) form a pack, and a class change closes one early. Options
// sorted by depth_key are in pack order; so is an engine pack plan (its
// full packs longest first, each class's partial pack last). A pack's
// lanes need not ascend in depth, and a partial pack repeats its deepest
// lane instead of falling to a scalar tail. Packs run in one lattice of
// (deepest+1) x W doubles leased from `scratch` (lattice_doubles(deepest)
// covers every width). Any exercise style. price_packed reduces one level
// at a time (the paper's intermediate level); price_packed_tiled reduces
// in register tiles (Lis. 3) cut at the levels where lanes start, and
// returns the same bits.
void price_packed(std::span<const core::OptionSpec> opts, int steps_per_year,
                  std::span<double> out, Width w = Width::kAuto,
                  core::ScratchPool* scratch = nullptr);
void price_packed_tiled(std::span<const core::OptionSpec> opts, int steps_per_year,
                        std::span<double> out, Width w = Width::kAuto,
                        core::ScratchPool* scratch = nullptr);

// Ablation entry: price_advanced with an explicit European tile depth
// (one of 4, 8, 16, 32, 64; other values throw); the default variants use
// 16 at 8 wide and 8 at 4 wide, the deepest tiles that fit the register
// file. Packs holding American lanes keep their 4-level tiles. Every depth
// returns the same bits.
void price_advanced_tile(std::span<const core::OptionSpec> opts, int steps,
                         std::span<double> out, int tile_size, Width w = Width::kAuto,
                         core::ScratchPool* scratch = nullptr);

// --- Blocked-layout family (Layout::kBsBlocked AoSoA tiles) ------------------
// European CRR pricing straight off the blocked tiles: per-lane lattice
// parameters come from the blocked spot/strike/years fields plus the
// view-shared rate/vol/dividend, and both the call and put prices are
// written back into the tiles (fields 3 and 4) — no OptionSpec gather.
// Every width's W-lane groups divide a core::kBsBlock-lane block.
void price_blocked(const core::BsBlockedView& view, int steps, Width w = Width::kAuto,
                   core::ScratchPool* scratch = nullptr);

// --- Shared CRR derivation (banded / blocked entry points) -------------------
namespace detail {
// The reference kernel's lattice coefficients, exposed so every other
// entry point derives bitwise-identical parameters from one definition.
struct CrrDerived {
  double pu_by_df;
  double pd_by_df;
  double up;
  double down;
};
// Throws std::invalid_argument when the risk-neutral probability leaves
// [0, 1], exactly like the batch kernels.
CrrDerived crr_derived(const core::OptionSpec& o, int steps);
double payoff_of(const core::OptionSpec& o, double s);

// The exercise cut of American put packs (DESIGN.md §4). Node j of level
// L sits at S·u^(2j−L); once j >= exercise_cut(L, x), x = ln(K/S)/ln u,
// it lies at least kCutMargin node steps (a factor u² each) above the
// strike, so the put's intrinsic value K − S is negative,
// max(cont, K − S) is cont, and the node takes the European expression.
// exercise_cut_x is x for an American put over a `steps`-deep lattice;
// −inf for a European option (it never exercises) and +inf, no cut, for
// an American call or where the node-spot chain's rounding could reach
// the margin. A pack cuts at the largest x of its lanes. exercise_cut is
// L + 1 (no node of the level) for x = +inf or NaN, and 0 for x = −inf.
inline constexpr int kCutMargin = 2;
double exercise_cut_x(const core::OptionSpec& o, int steps);
int exercise_cut(int level, double x);
}  // namespace detail

// --- Banded decomposition: intra-option task parallelism ---------------------
//
// The backward induction `call[j] = pu*call[j+1] + pd*call[j]` (ascending
// j, in place) is a pure level map: every level-i value depends only on
// two completed level-(i+1) values. Grouping kBandLevels levels into one
// band pass over ping-pong src/dst lattices therefore splits each pass's
// output range into independent segments — the task-parallel unit a
// TaskGroup executes — while every output is still computed by the
// *identical* floating-point expression, so the result is bitwise-equal
// to price_one_reference no matter how many tasks ran (or none).
namespace banded {

// Engine-side threshold: European options at least this deep are worth
// decomposing into segment tasks (docs/engine.md, task parallelism).
inline constexpr int kMinTaskSteps = 512;
// Levels reduced per band pass. Adjacent segments of a pass recompute a
// levels-deep triangle of overlap ((nseg-1) * levels^2 / 2 extra updates
// per pass), so the redundant-work fraction is ~levels / (2 * kSegmentMin):
// 64-deep bands over 512-wide segments cost ~6% extra updates — the price
// of decomposing a loop-carried reduction into independent tasks.
inline constexpr int kBandLevels = 64;
// Minimum outputs per segment, and the segment cap per pass (sized to
// engine::TaskGroup::kMaxTasks).
inline constexpr std::size_t kSegmentMin = 512;
inline constexpr int kMaxSegments = 64;

struct Params {
  double pu_by_df;
  double pd_by_df;
};

// One independent slice of a band pass: produce dst[lo .. lo+count) from
// src[lo .. lo+count+levels-1], reducing `levels` levels.
struct Segment {
  const double* src;  // pass input lattice (immutable during the pass)
  double* dst;        // pass output lattice (disjoint slices per segment)
  std::size_t lo;     // first output index
  std::size_t count;  // outputs produced
  int levels;         // levels this pass reduces
  const Params* params;
};

// Work space reduce_segment needs: the first reduced level's row.
inline std::size_t work_doubles(const Segment& s) {
  return s.count + static_cast<std::size_t>(s.levels) - 1;
}

void reduce_segment(const Segment& s, std::span<double> work);

// Executes segs[0..nseg); every segment must be complete on return.
using SegmentRunner = void (*)(void* ctx, const Segment* segs, int nseg);

// In-order runner; ctx is a std::span<double>* work buffer of at least
// `steps` doubles (an upper bound on work_doubles of any segment).
void serial_segment_runner(void* ctx, const Segment* segs, int nseg);

// European-only banded backward induction. `lattice` holds the two
// ping-pong arrays: at least 2*(steps+1) doubles.
double price_one_banded(const core::OptionSpec& opt, int steps, std::span<double> lattice,
                        SegmentRunner runner, void* ctx);

}  // namespace banded

}  // namespace finbench::kernels::binomial
