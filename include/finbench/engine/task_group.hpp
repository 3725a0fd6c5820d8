// finbench/engine/task_group.hpp
//
// Nested fork-join task layer over the persistent ThreadPool (PR 10).
//
// The pool's chunked scheduler balances *across* options; a TaskGroup
// decomposes work *inside* one expensive option (binomial level bands,
// Monte Carlo path blocks) without a second thread pool. A chunk that
// spawns tasks publishes them to a pool-global FIFO; participants that
// run out of chunk tickets drain that queue until the run's chunks
// complete, and join() is help-first — the joining thread executes
// queued tasks (its own group's or any other's) instead of blocking, so a
// pool of size 1 (or a TaskGroup used outside any run) degrades to serial
// in-spawn-order execution and can never deadlock.
//
// Design constraints, in order:
//   * Zero steady-state allocations: task closures are placement-new'd
//     into fixed inline slots owned by the (stack-allocated) group, and
//     the queue is intrusive. The counting-allocator harness
//     (tests/test_engine_alloc.cpp) holds with tasking enabled.
//   * Independent leaf tasks: no task waits on another, only join() waits
//     on its group. So any execution order, any thread and the inline
//     overflow path give the same result, and the queue (popped in spawn
//     order) carries no deadlock argument.
//   * Exception safety: the first exception thrown by a task is captured
//     and rethrown from join(); further ones land on the same
//     "pool.exceptions.suppressed" counter the chunk scheduler uses.
//
// Observability: engine.tasks.spawned counts every spawn, engine.tasks.steals
// counts tasks executed by a thread other than their spawner, and
// engine.tasks.depth counts tasks executed from inside another task
// (nested fork-join). All three surface in the v2 run report.

#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>

#include "finbench/engine/thread_pool.hpp"

namespace finbench::engine {

class TaskGroup {
 public:
  // Inline capacity: tasks outstanding (spawned, not yet executed) per
  // group. spawn() beyond capacity executes the callable inline on the
  // spawner, which is correct because tasks are independent.
  static constexpr int kMaxTasks = 64;
  static constexpr std::size_t kClosureBytes = 96;

  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Drains outstanding tasks; a pending exception that join() never
  // collected is suppressed (counted), never thrown from a destructor.
  ~TaskGroup() {
    if (pending_.load(std::memory_order_acquire) > 0) {
      try {
        join();
      } catch (...) {
        ThreadPool::count_suppressed_exception();
      }
    }
  }

  // Spawn fn() as a task. Must be called by one thread per group (the
  // owner); tasks themselves may spawn into their *own* nested groups.
  template <class F>
  void spawn(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kClosureBytes, "task closure too large for inline slot");
    static_assert(alignof(Fn) <= alignof(std::max_align_t), "over-aligned task closure");
    ThreadPool::count_task_spawned();
    Slot* slot = claim_slot();
    if (slot == nullptr) {
      // Capacity exhausted: run inline, with the same exception capture an
      // enqueued task would get so join() reports uniformly.
      run_inline(static_cast<F&&>(fn));
      return;
    }
    ::new (static_cast<void*>(slot->storage)) Fn(static_cast<F&&>(fn));
    slot->node.invoke = &invoke_thunk<Fn>;
    slot->node.group = this;
    slot->node.next = nullptr;
    slot->node.owner = std::this_thread::get_id();
    pending_.fetch_add(1, std::memory_order_relaxed);
    pool_.post_task(&slot->node);
  }

  // Help-first join: execute queued tasks (any group's) until every task
  // spawned on this group has finished, then rethrow the first captured
  // exception. Safe at pool size 1 and outside pool runs (the caller
  // simply executes everything itself).
  void join() {
    while (pending_.load(std::memory_order_acquire) > 0) {
      if (ThreadPool::TaskNode* n = pool_.try_pop_task()) {
        ThreadPool::execute_task(n);
        continue;
      }
      pool_.wait_task_or_group_idle(pending_);
    }
    if (failed_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(err_mu_);
      if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        failed_.store(false, std::memory_order_release);
        std::rethrow_exception(e);
      }
    }
  }

 private:
  friend class ThreadPool;

  enum : int { kFree = 0, kLive = 1 };

  struct Slot {
    ThreadPool::TaskNode node;
    alignas(std::max_align_t) unsigned char storage[kClosureBytes];
  };

  template <class Fn>
  static void invoke_thunk(ThreadPool::TaskNode* n) {
    // TaskNode is the first member of Slot, so the node pointer IS the slot.
    Slot* slot = reinterpret_cast<Slot*>(n);
    TaskGroup* g = n->group;
    Fn* fn = std::launder(reinterpret_cast<Fn*>(slot->storage));
    try {
      (*fn)();
    } catch (...) {
      g->capture_exception();
    }
    fn->~Fn();
    // Free the slot before the pending decrement: once pending_ hits zero
    // the joiner may destroy the group (and with it this slot).
    n->state.store(kFree, std::memory_order_release);
    g->finish_one();
  }

  template <class F>
  void run_inline(F&& fn) {
    try {
      fn();
    } catch (...) {
      capture_exception();
    }
  }

  Slot* claim_slot() {
    for (int i = 0; i < kMaxTasks; ++i) {
      Slot& s = slots_[(next_slot_ + i) % kMaxTasks];
      if (s.node.state.load(std::memory_order_acquire) == kFree) {
        s.node.state.store(kLive, std::memory_order_relaxed);
        next_slot_ = (next_slot_ + i + 1) % kMaxTasks;
        return &s;
      }
    }
    return nullptr;
  }

  void capture_exception() {
    std::lock_guard<std::mutex> lock(err_mu_);
    if (!error_) {
      error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
    } else {
      ThreadPool::count_suppressed_exception();
    }
  }

  // The executor's last touch of the group: after the final decrement the
  // joiner may destroy it, so only the (outliving) pool is notified.
  void finish_one() {
    ThreadPool& pool = pool_;
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pool.notify_task_waiters();
    }
  }

  ThreadPool& pool_;
  std::atomic<int> pending_{0};
  std::atomic<bool> failed_{false};
  std::mutex err_mu_;
  std::exception_ptr error_;  // guarded by err_mu_
  int next_slot_ = 0;         // owner-thread only
  Slot slots_[kMaxTasks] = {};
};

}  // namespace finbench::engine
