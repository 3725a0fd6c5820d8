// finbench/core/portfolio.hpp
//
// The unified, layout-tagged workload model. A Portfolio is one owning
// container for a pricing workload in exactly one memory layout — the
// paper's whole "advanced" optimization level is a data-layout
// transformation (AOS→SOA, lane blocking; Sec. III), so layout is a
// first-class, tagged, *measured* property of the workload rather than a
// per-kernel container choice. A PortfolioView is the cheap non-owning
// form every kernel adapter and the engine consume; conversions between
// layouts run through a caller-supplied Arena and report their cost
// (seconds, bytes) so "SOA incl. conversion" can be an honest benchmark
// row instead of an assumption.
//
// Layout tags:
//   kSpecs      heterogeneous OptionSpec records (lattice / PDE / MC)
//   kBsAos      Black–Scholes array-of-structures (the reference layout)
//   kBsSoa      Black–Scholes structure-of-arrays (unit-stride SIMD)
//   kBsSoaF     single-precision SOA (twice the lanes, half the bytes)
//   kBsBlocked  lane-blocked AoSoA: kBsBlock-option blocks, each field a
//               kBsBlock-vector (native layout of the bs.blocked{,_sp}.auto
//               register-tiled kernels and of binomial.blocked.auto)
//   kPaths      a path-construction job (a count, no per-item data)
//
// Lifetime rules: a PortfolioView never owns memory. Views obtained from
// a Portfolio are valid until the Portfolio is destroyed or moved-from;
// views produced by convert() are valid until the Arena they were built
// in is reset() or destroyed. See docs/portfolio.md.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/option.hpp"
#include "finbench/core/workload.hpp"

namespace finbench::core {

enum class Layout { kSpecs, kBsAos, kBsSoa, kBsSoaF, kBsBlocked, kPaths };

constexpr std::string_view to_string(Layout l) {
  switch (l) {
    case Layout::kSpecs: return "specs";
    case Layout::kBsAos: return "bs_aos";
    case Layout::kBsSoa: return "bs_soa";
    case Layout::kBsSoaF: return "bs_soa_f";
    case Layout::kBsBlocked: return "bs_blocked";
    case Layout::kPaths: return "paths";
  }
  return "?";
}

// --- Arena ------------------------------------------------------------------
//
// A 64-byte-aligned monotonic bump allocator. allocate() carves from
// committed blocks; reset() rewinds to the start while *keeping* the
// blocks, so a steady-state reset/allocate cycle of the same sizes
// performs zero heap allocations — the property the engine relies on for
// per-request conversion scratch (tests/test_engine_alloc.cpp proves it
// with a counting operator new). Not thread-safe; one arena per request.

class Arena {
 public:
  Arena() = default;
  explicit Arena(std::size_t initial_bytes) {
    if (initial_bytes > 0) grow(initial_bytes);
  }
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // 64-byte-aligned storage for `bytes`; valid until reset()/destruction.
  void* allocate(std::size_t bytes);

  // Typed convenience: an aligned span of n trivially-copyable Ts. The
  // memory is uninitialized; every conversion writes all of it.
  template <class T>
  std::span<T> make_span(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n == 0) return {};
    return {static_cast<T*>(allocate(n * sizeof(T))), n};
  }

  // Rewind to empty, keeping the committed blocks for reuse. Invalidates
  // every span handed out since construction or the previous reset.
  void reset();

  std::size_t bytes_in_use() const { return in_use_; }
  std::size_t bytes_reserved() const { return reserved_; }

 private:
  struct Free {
    void operator()(std::byte* p) const {
      ::operator delete(p, std::align_val_t{arch::kCacheLineBytes});
    }
  };
  struct Block {
    std::unique_ptr<std::byte, Free> mem;
    std::size_t size = 0;
  };

  Block& grow(std::size_t at_least);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // block being bumped
  std::size_t offset_ = 0;   // within blocks_[current_]
  std::size_t in_use_ = 0;
  std::size_t reserved_ = 0;
};

// --- PortfolioView ----------------------------------------------------------
//
// The tagged non-owning workload: exactly the member matching `layout` is
// populated. Spans are mutable because kernels write outputs (call/put)
// back into the workload arrays. Copying a view is O(1) and never copies
// option data.

struct PortfolioView {
  Layout layout = Layout::kSpecs;
  std::span<const OptionSpec> specs{};  // kSpecs
  BsAosView aos{};                      // kBsAos
  BsSoaView soa{};                      // kBsSoa
  BsSoaFView sp{};                      // kBsSoaF
  BsBlockedView blocked{};              // kBsBlocked
  std::size_t npaths = 0;               // kPaths

  std::size_t size() const {
    switch (layout) {
      case Layout::kSpecs: return specs.size();
      case Layout::kBsAos: return aos.size();
      case Layout::kBsSoa: return soa.size();
      case Layout::kBsSoaF: return sp.size();
      case Layout::kBsBlocked: return blocked.size();
      case Layout::kPaths: return npaths;
    }
    return 0;
  }
  bool empty() const { return size() == 0; }
};

// View constructors, one per caller-owned workload form (a Portfolio
// hands out its own view).
inline PortfolioView view_of(std::span<const OptionSpec> specs) {
  PortfolioView v;
  v.layout = Layout::kSpecs;
  v.specs = specs;
  return v;
}
inline PortfolioView view_of(BsBatchAos& b) {
  PortfolioView v;
  v.layout = Layout::kBsAos;
  v.aos = b.view();
  return v;
}
inline PortfolioView paths_view(std::size_t npaths) {
  PortfolioView v;
  v.layout = Layout::kPaths;
  v.npaths = npaths;
  return v;
}

// Bytes of per-item data the view spans: its OptionSpec records, or the
// arrays of its Black–Scholes layout (a kBsBlocked view's padding lanes
// included); 0 for kPaths, which carries only a count.
std::size_t view_bytes(const PortfolioView& v);

// --- Per-option access (Black–Scholes layouts) ------------------------------
//
// The per-option entry points to the one field map of the Black–Scholes
// layouts, which the range copies and conversions below walk too: option
// i, or the batch-shared scalars, of any Black–Scholes layout. Values
// travel as doubles: a kBsSoaF view widens on read and narrows to float
// on write. Index i may reach a kBsBlocked view's padding lanes (up to
// num_blocks() * kBsBlock). These are for per-option slow paths (repair,
// fault injection, tests). The accessors throw std::invalid_argument on a
// non-BS layout.

constexpr bool is_bs(Layout l) {
  return l == Layout::kBsAos || l == Layout::kBsSoa || l == Layout::kBsSoaF ||
         l == Layout::kBsBlocked;
}

struct BsLane {
  double spot, strike, years, call, put;
};

// Shared by every option of a batch (float-rounded on kBsSoaF).
struct BsScalars {
  double rate, vol, dividend;
  friend bool operator==(const BsScalars&, const BsScalars&) = default;
};

BsLane bs_lane(const PortfolioView& v, std::size_t i);
void set_bs_inputs(const PortfolioView& v, std::size_t i, double spot, double strike,
                   double years);
void set_bs_outputs(const PortfolioView& v, std::size_t i, double call, double put);

BsScalars bs_scalars(const PortfolioView& v);
// Writes the view's own scalar fields (the arrays are untouched).
void set_bs_scalars(PortfolioView& v, const BsScalars& s);

// --- Layout conversion ------------------------------------------------------

struct ConvertStats {
  double seconds = 0.0;     // wall time of the conversion pass
  std::size_t bytes = 0;    // bytes written into the target layout
};

// True when src_layout can be converted to `target` (any ordered pair of
// the Black–Scholes batch layouts; the identity is trivially negotiable).
bool convertible(Layout src, Layout target);

// Convert `src` into `target` layout with storage carved from `a`,
// carrying inputs *and* current outputs. Returns a view over arena
// memory; valid until a.reset(). Throws std::invalid_argument when
// !convertible(src.layout, target). The identity conversion returns src
// unchanged (zero cost, no arena traffic).
PortfolioView convert(const PortfolioView& src, Layout target, Arena& a,
                      ConvertStats* stats = nullptr);

// Copy the outputs (call/put) of `from` into `to` (any Black–Scholes
// layout pair of equal size). The engine uses this to land a negotiated
// layout's prices back in the caller's arrays. Returns bytes copied.
std::size_t copy_outputs(const PortfolioView& from, const PortfolioView& to);

// The inputs-only counterpart of copy_outputs: copy spot/strike/years of
// `from` into `to` (any Black–Scholes layout pair of equal size, the same
// layout included). A lane-blocked target pads its ragged last block with
// the final option.
// The engine negotiates one chunk at a time as copy_inputs -> kernel ->
// copy_outputs through a cache-resident tile, and assembles a fused group
// by copy_inputs of each member into its range. Returns bytes written.
std::size_t copy_inputs(const PortfolioView& from, const PortfolioView& to);

// Uninitialized storage for n options in Black–Scholes layout `target`,
// carved from `a` and carrying `like`'s shared scalars (rate, vol,
// dividend). *bytes, when given, receives the bytes carved.
PortfolioView allocate_like(const PortfolioView& like, Layout target, std::size_t n, Arena& a,
                            std::size_t* bytes = nullptr);

// The [off, off + m) range of `v` as a view of its own: the same arrays
// and shared scalars, no copy. Every layout is supported; a kBsBlocked
// range must start on a block boundary (throws std::invalid_argument
// otherwise) and keeps the parent's padding in its last block.
PortfolioView subview(const PortfolioView& v, std::size_t off, std::size_t m);

// --- Portfolio --------------------------------------------------------------
//
// The owning form: one arena holding the workload in one layout, and the
// only owner of a generated Black–Scholes book.

class Portfolio {
 public:
  Portfolio() = default;
  Portfolio(Portfolio&&) noexcept = default;
  Portfolio& operator=(Portfolio&&) noexcept = default;
  Portfolio(const Portfolio&) = delete;
  Portfolio& operator=(const Portfolio&) = delete;

  // Black–Scholes book in any BS layout (kBsAos, kBsSoa, kBsSoaF,
  // kBsBlocked): the one generator. Carves the layout in the portfolio's
  // arena and writes one AOS-ordered Philox pass (spot, strike, years per
  // option) in place with zeroed outputs; a kBsBlocked book pads its
  // ragged last block with the final option. Every layout of one (n,
  // seed) therefore holds the same options (float-rounded on kBsSoaF),
  // bitwise-equal to core::convert of the kBsAos book — asserted in
  // tests/test_portfolio.cpp, with the draw itself pinned there too.
  static Portfolio bs(std::size_t n, Layout layout, std::uint64_t seed = 0,
                      const WorkloadParams& p = {});

  // Heterogeneous OptionSpec workload (lattice / PDE / MC kernels).
  static Portfolio specs(std::size_t n, std::uint64_t seed = 0,
                         const SingleOptionWorkloadParams& p = {});
  static Portfolio specs(std::span<const OptionSpec> copy_from);

  // A path-construction job of n paths (no per-item data).
  static Portfolio paths(std::size_t n);

  Layout layout() const { return view_.layout; }
  std::size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }

  // Non-owning view over this portfolio's storage (mutable outputs).
  const PortfolioView& view() { return view_; }
  operator const PortfolioView&() { return view_; }

  std::size_t arena_bytes() const { return arena_.bytes_in_use(); }

 private:
  Arena arena_;
  PortfolioView view_;
};

}  // namespace finbench::core
