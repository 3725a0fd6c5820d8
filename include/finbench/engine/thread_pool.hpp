// finbench/engine/thread_pool.hpp
//
// The one thread runtime of finbench: a persistent worker pool with
// dynamic chunk self-scheduling. Chunks are claimed through an atomic
// ticket counter, so a participant that finishes cheap chunks early keeps
// pulling work — the load balance heterogeneous option batches need. A
// static mode (participant p owns chunks p, p+P, p+2P, ...) is kept for
// apples-to-apples imbalance comparisons.
//
// The kernels are serial loops over the options, packs, path groups or
// blocks they are handed; every threaded path in the library (Engine::price
// and every registry variant's run_batch) runs them here, one range per
// chunk. The calling thread participates as participant 0, so a pool of
// size P uses P-1 dedicated workers.
//
// Per-participant *CPU* time (not wall time) is recorded through
// obs::record_parallel_region under "parallel.<site>.*" when
// obs::parallel_timing_enabled(): CPU time attributes load imbalance
// correctly even when the pool is oversubscribed onto fewer cores.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "finbench/arch/parallel.hpp"
#include "finbench/robust/deadline.hpp"

namespace finbench::engine {

class TaskGroup;

class ThreadPool {
 public:
  // threads <= 0: size to arch::num_threads(). A pool of size 1 runs
  // everything inline on the caller.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Participants per run (dedicated workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Execute fn(c) for every chunk c in [0, nchunks); blocks until all
  // chunks completed. kDynamic claims chunks via the ticket counter;
  // kStatic assigns chunk c to participant c % P. The first exception is
  // rethrown here (remaining chunks are skipped under kDynamic, visited
  // but not executed under kStatic); further exceptions from other
  // participants are counted under the "pool.exceptions.suppressed"
  // counter and noted in the rethrown message. When `cancel` is non-null
  // it is polled at every chunk boundary: once expired, remaining chunks
  // complete as not-run (fn is never called for them), so a run under a
  // deadline returns within one chunk's wall time per participant — the
  // caller (the engine) knows which chunks ran from its own per-chunk
  // bookkeeping. Concurrent run() calls from different threads serialize;
  // run() from inside fn executes the nested loop inline on the calling
  // participant.
  //
  // Every participant — dedicated workers at startup, the caller for the
  // scope of its participation — computes under the pool's denormal
  // policy (FTZ+DAZ, robust::install_denormal_ftz), so results never
  // depend on which participant claimed a chunk. The caller's FP state is
  // restored before run() returns.
  void run(std::ptrdiff_t nchunks, const std::function<void(std::ptrdiff_t)>& fn,
           arch::Schedule sched = arch::Schedule::kDynamic, const char* site = "pool",
           const robust::CancelToken* cancel = nullptr);

  // Execute fn(c) for c in [0, nchunks) serially on the calling thread,
  // under the same policy a pool participant runs with: FTZ+DAZ (restored
  // on return), participant id 0 (or the enclosing run's), the cancel
  // token polled between chunks, and a run() from inside fn inline too.
  // No worker is woken. run() takes this path for nested submissions and
  // single-participant pools; the engine takes it for work too small to
  // share (a one-chunk batch, such as a Black–Scholes quote).
  static void run_inline(std::ptrdiff_t nchunks, const std::function<void(std::ptrdiff_t)>& fn,
                         const robust::CancelToken* cancel = nullptr);

  // Process-wide pool sized to arch::num_threads() at first use.
  static ThreadPool& shared();

  // Participant index of the calling thread while it executes chunks of a
  // run() (0 = the submitting caller, 1..P-1 = dedicated workers), -1
  // outside any run. The engine stamps it into flight-recorder records.
  static int current_participant();

 private:
  friend class TaskGroup;

  // --- Nested fork-join task layer (finbench/engine/task_group.hpp) ---
  //
  // Intrusive node of the pool-global FIFO task queue. Nodes are owned by
  // their TaskGroup's inline slots; the pool only links/unlinks them.
  struct TaskNode {
    void (*invoke)(TaskNode*) = nullptr;
    TaskGroup* group = nullptr;
    TaskNode* next = nullptr;
    std::thread::id owner{};     // spawner, for the steal counter
    std::atomic<int> state{0};   // TaskGroup slot lifecycle (0 = free)
  };

  void post_task(TaskNode* n);
  TaskNode* try_pop_task();
  // Execute one popped task, maintaining the steal/depth counters.
  static void execute_task(TaskNode* n);
  // Block until a task is queued or `pending` (a group's outstanding-task
  // count) drops to zero. Used by TaskGroup::join when the queue is empty
  // but other threads still run this group's tasks.
  void wait_task_or_group_idle(const std::atomic<int>& pending);
  void notify_task_waiters();
  // Run-scoped help: a participant out of chunk tickets drains queued
  // tasks until every chunk of the live run has completed.
  void help_tasks_until_run_done();

  static void count_task_spawned();
  static void count_suppressed_exception();

  void worker_main(int participant);
  void participate(int participant);
  void execute_chunk(std::ptrdiff_t c);

  std::vector<std::thread> workers_;

  std::mutex task_mu_;                // guards the task queue links
  std::condition_variable task_cv_;   // task posted / group drained / run done
  TaskNode* task_head_ = nullptr;
  TaskNode* task_tail_ = nullptr;

  std::mutex mu_;                    // guards gen_, run_live_, stop_
  std::condition_variable cv_work_;  // new generation / stop
  std::condition_variable cv_done_;  // chunk completed / worker left run
  std::uint64_t gen_ = 0;
  bool run_live_ = false;
  bool stop_ = false;

  std::mutex submit_mu_;  // serializes external run() calls

  // State of the active run (valid while run_live_).
  const std::function<void(std::ptrdiff_t)>* fn_ = nullptr;
  std::ptrdiff_t nchunks_ = 0;
  arch::Schedule sched_ = arch::Schedule::kDynamic;
  std::atomic<std::ptrdiff_t> ticket_{0};
  std::atomic<std::ptrdiff_t> completed_{0};
  std::atomic<int> active_workers_{0};
  std::atomic<bool> failed_{false};
  std::atomic<int> suppressed_{0};  // secondary exceptions after the first
  const robust::CancelToken* cancel_ = nullptr;
  std::exception_ptr error_;  // guarded by err_mu_
  std::mutex err_mu_;

  // Per-participant CPU-time accumulation for the imbalance metric.
  std::mutex stat_mu_;
  double cpu_min_ = 0.0, cpu_max_ = 0.0, cpu_sum_ = 0.0;
  int cpu_count_ = 0;
};

}  // namespace finbench::engine
