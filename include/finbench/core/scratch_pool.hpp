// finbench/core/scratch_pool.hpp
//
// Fixed-capacity pool of equally-sized, cache-line-aligned double slices
// carved from a core::Arena, and ScratchBuf, the one way a kernel takes
// scratch from it. A kernel call that needs temporaries (the binomial
// lattices, Monte Carlo normal chunks, the VML-style d1/d2/xexp/qlog
// arrays, the Crank–Nicolson pack workspace) leases one slice for the
// call instead of allocating: the engine sizes the pool once per request,
// and every steady-state repetition after that is heap-free
// (tests/test_engine_alloc.cpp).
//
// Concurrent callers are the participants of the engine's ThreadPool:
// each runs its range calls one at a time, and while it helps join its
// fork-join tasks it may hold a task's lease besides its own. Claim and
// release are a lock-free bitmask, so slices are handed out without
// knowing which participant asks. Exhaustion (more concurrent leases than
// slots) is not an error: ScratchBuf falls back to a local allocation,
// trading the zero-alloc guarantee for correctness, and so do standalone
// kernel calls, which pass no pool.

#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "finbench/arch/aligned.hpp"
#include "finbench/core/portfolio.hpp"

namespace finbench::core {

class ScratchPool {
 public:
  static constexpr int kMaxSlots = 64;  // one bitmask word

  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  // (Re)carve `slots` slices of `slot_doubles` doubles each from `arena`.
  // No-op when the pool is already at least that large, so per-repetition
  // calls settle into zero work; growing abandons the old slices (the
  // arena is monotonic) and re-carves. Not thread-safe: call before the
  // pool is handed to concurrent workers, never while leases are out.
  void reserve(Arena& arena, std::size_t slot_doubles, int slots) {
    if (slots > kMaxSlots) slots = kMaxSlots;
    if (slots < 1) slots = 1;
    if (base_ != nullptr && slot_doubles_ >= slot_doubles && slots_ >= slots) return;
    slot_doubles_ = align_up(slot_doubles > slot_doubles_ ? slot_doubles : slot_doubles_);
    if (slots < slots_) slots = slots_;
    base_ = arena.make_span<double>(slot_doubles_ * static_cast<std::size_t>(slots)).data();
    slots_ = slots;
    free_.store(slots == kMaxSlots ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << slots) - 1,
                std::memory_order_relaxed);
  }

  bool ready(std::size_t slot_doubles) const {
    return base_ != nullptr && slot_doubles_ >= slot_doubles;
  }
  std::size_t slot_doubles() const { return slot_doubles_; }
  int slots() const { return slots_; }

  // RAII lease on one slice; empty when the pool is unsized, too small for
  // the request, or exhausted. data()/span() are valid until release.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : pool_(o.pool_), slot_(o.slot_) { o.pool_ = nullptr; }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        slot_ = o.slot_;
        o.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    explicit operator bool() const { return pool_ != nullptr; }
    double* data() const {
      return pool_ ? pool_->base_ + static_cast<std::size_t>(slot_) * pool_->slot_doubles_
                   : nullptr;
    }
    std::span<double> span() const {
      return pool_ ? std::span<double>{data(), pool_->slot_doubles_} : std::span<double>{};
    }

    void release() {
      if (pool_ != nullptr) {
        pool_->free_.fetch_or(std::uint64_t{1} << slot_, std::memory_order_release);
        pool_ = nullptr;
      }
    }

   private:
    friend class ScratchPool;
    Lease(ScratchPool* p, int slot) : pool_(p), slot_(slot) {}
    ScratchPool* pool_ = nullptr;
    int slot_ = 0;
  };

  // Lease a slice of at least `min_doubles`; empty lease on any miss.
  Lease claim(std::size_t min_doubles) {
    if (base_ == nullptr || slot_doubles_ < min_doubles) return {};
    std::uint64_t m = free_.load(std::memory_order_relaxed);
    while (m != 0) {
      const int slot = std::countr_zero(m);
      if (free_.compare_exchange_weak(m, m & ~(std::uint64_t{1} << slot),
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return Lease(this, slot);
      }
    }
    return {};
  }

 private:
  // Keep every slice on its own cache line so concurrent workers never
  // false-share slot boundaries.
  static std::size_t align_up(std::size_t doubles) {
    constexpr std::size_t kLine = arch::kCacheLineBytes / sizeof(double);
    return (doubles + kLine - 1) / kLine * kLine;
  }

  double* base_ = nullptr;
  std::size_t slot_doubles_ = 0;
  int slots_ = 0;
  std::atomic<std::uint64_t> free_{0};
};

// Scratch for one kernel call: a slice of at least `doubles` leased from
// `pool`, or a local aligned allocation when there is no pool or no free
// slice big enough. The lease returns to the pool on destruction.
class ScratchBuf {
 public:
  ScratchBuf(ScratchPool* pool, std::size_t doubles) {
    if (pool != nullptr) lease_ = pool->claim(doubles);
    if (!lease_) local_.resize(doubles);
    data_ = lease_ ? lease_.data() : local_.data();
  }
  ScratchBuf(const ScratchBuf&) = delete;
  ScratchBuf& operator=(const ScratchBuf&) = delete;

  double* data() const { return data_; }

 private:
  ScratchPool::Lease lease_;
  arch::AlignedVector<double> local_;
  double* data_ = nullptr;
};

}  // namespace finbench::core
