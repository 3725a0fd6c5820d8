#include "finbench/engine/thread_pool.hpp"

#include <stdexcept>
#include <string>

#include "finbench/arch/timing.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/obs/trace.hpp"
#include "finbench/robust/denormal.hpp"

namespace finbench::engine {

namespace {
// Set while this thread is executing chunks of a pool run; a nested run()
// from inside a chunk executes inline instead of deadlocking on submit_mu_.
thread_local bool t_in_pool_run = false;
// Participant index of the active run on this thread; -1 outside a run.
thread_local int t_pool_participant = -1;
// Fork-join nesting depth on this thread: >0 while a spawned task runs,
// so a task executed from inside another task counts as nested.
thread_local int t_task_depth = 0;
}  // namespace

int ThreadPool::current_participant() { return t_pool_participant; }

// --- Nested fork-join task layer ---------------------------------------------

void ThreadPool::count_task_spawned() {
  static obs::Counter& spawned = obs::counter("engine.tasks.spawned");
  spawned.add(1);
}

void ThreadPool::count_suppressed_exception() {
  static obs::Counter& suppressed = obs::counter("pool.exceptions.suppressed");
  suppressed.add(1);
}

void ThreadPool::post_task(TaskNode* n) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    if (task_tail_ != nullptr) {
      task_tail_->next = n;
    } else {
      task_head_ = n;
    }
    task_tail_ = n;
  }
  task_cv_.notify_one();
}

ThreadPool::TaskNode* ThreadPool::try_pop_task() {
  std::lock_guard<std::mutex> lock(task_mu_);
  TaskNode* n = task_head_;
  if (n != nullptr) {
    task_head_ = n->next;
    if (task_head_ == nullptr) task_tail_ = nullptr;
    n->next = nullptr;
  }
  return n;
}

void ThreadPool::execute_task(TaskNode* n) {
  static obs::Counter& steals = obs::counter("engine.tasks.steals");
  static obs::Counter& depth = obs::counter("engine.tasks.depth");
  if (std::this_thread::get_id() != n->owner) steals.add(1);
  if (t_task_depth > 0) depth.add(1);
  ++t_task_depth;
  n->invoke(n);  // never throws: the thunk captures into the group
  --t_task_depth;
}

void ThreadPool::wait_task_or_group_idle(const std::atomic<int>& pending) {
  std::unique_lock<std::mutex> lock(task_mu_);
  task_cv_.wait(lock, [&] {
    return task_head_ != nullptr || pending.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::notify_task_waiters() {
  // Taking the queue lock before notifying closes the check-then-block
  // race against wait_task_or_group_idle / help_tasks_until_run_done.
  { std::lock_guard<std::mutex> lock(task_mu_); }
  task_cv_.notify_all();
}

void ThreadPool::help_tasks_until_run_done() {
  // Chunks join their own tasks before completing, so once every chunk of
  // the live run has completed the queue is necessarily empty and helpers
  // must leave promptly (run() waits for active_workers_ == 0).
  while (completed_.load(std::memory_order_acquire) < nchunks_) {
    if (TaskNode* n = try_pop_task()) {
      execute_task(n);
      continue;
    }
    std::unique_lock<std::mutex> lock(task_mu_);
    task_cv_.wait(lock, [&] {
      return task_head_ != nullptr ||
             completed_.load(std::memory_order_acquire) >= nchunks_;
    });
  }
}

ThreadPool::ThreadPool(int threads) {
  int n = threads > 0 ? threads : arch::num_threads();
  if (n < 1) n = 1;
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int p = 1; p < n; ++p) {
    workers_.emplace_back([this, p] { worker_main(p); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::execute_chunk(std::ptrdiff_t c) {
  // After a failure (or once the request's cancel token expires) the
  // remaining chunks are skipped but still counted, so completion
  // bookkeeping stays exact and run() can return promptly.
  if (!failed_.load(std::memory_order_relaxed) && !(cancel_ != nullptr && cancel_->expired())) {
    try {
      (*fn_)(c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mu_);
      if (!error_) {
        error_ = std::current_exception();
      } else {
        // A second participant failed while the first exception was in
        // flight. Only one can be rethrown; the rest are counted, not
        // lost silently.
        suppressed_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter& suppressed = obs::counter("pool.exceptions.suppressed");
        suppressed.add(1);
      }
      failed_.store(true, std::memory_order_relaxed);
    }
  }
  if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == nchunks_) {
    // Wake helpers parked on the task queue so they can observe run
    // completion and leave participate() (run() waits on them).
    notify_task_waiters();
  }
}

void ThreadPool::participate(int participant) {
  const bool timing = obs::parallel_timing_enabled();
  arch::ThreadCpuTimer cpu;
  t_in_pool_run = true;
  t_pool_participant = participant;
  if (sched_ == arch::Schedule::kDynamic) {
    std::ptrdiff_t c;
    while ((c = ticket_.fetch_add(1, std::memory_order_relaxed)) < nchunks_) {
      execute_chunk(c);
    }
  } else {
    const int P = size();
    for (std::ptrdiff_t c = participant; c < nchunks_; c += P) {
      execute_chunk(c);
    }
  }
  // Out of chunk tickets: drain intra-option tasks spawned by still-running
  // chunks until the run completes, so a mixed-expiry batch's deep tail
  // option keeps every participant busy instead of idling P-1 of them.
  help_tasks_until_run_done();
  t_in_pool_run = false;
  t_pool_participant = -1;
  if (timing) {
    const double s = cpu.seconds();
    std::lock_guard<std::mutex> lock(stat_mu_);
    if (cpu_count_ == 0 || s < cpu_min_) cpu_min_ = s;
    if (cpu_count_ == 0 || s > cpu_max_) cpu_max_ = s;
    cpu_sum_ += s;
    ++cpu_count_;
  }
}

void ThreadPool::worker_main(int participant) {
  // One denormal policy for every participant: FTZ+DAZ, so a chunk's
  // result (and its latency, on denormal-producing inputs) never depends
  // on which thread claimed it. The caller gets the same policy scoped
  // around its participation in run().
  robust::install_denormal_ftz();
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || (run_live_ && gen_ != seen); });
    if (stop_) return;
    seen = gen_;
    ++active_workers_;
    lock.unlock();
    participate(participant);
    lock.lock();
    --active_workers_;
    cv_done_.notify_all();
  }
}

void ThreadPool::run_inline(std::ptrdiff_t nchunks,
                            const std::function<void(std::ptrdiff_t)>& fn,
                            const robust::CancelToken* cancel) {
  const std::uint32_t fp = robust::save_fp_state();
  robust::install_denormal_ftz();
  // A nested submission keeps the outer run's participant id; otherwise
  // the caller executes as participant 0. Either way a run() from inside
  // fn stays inline on this thread.
  const int prev_participant = t_pool_participant;
  const bool prev_in_run = t_in_pool_run;
  if (prev_participant < 0) t_pool_participant = 0;
  t_in_pool_run = true;
  auto restore = [&] {
    t_pool_participant = prev_participant;
    t_in_pool_run = prev_in_run;
    robust::restore_fp_state(fp);
  };
  for (std::ptrdiff_t c = 0; c < nchunks; ++c) {
    if (cancel != nullptr && cancel->expired()) break;
    try {
      fn(c);
    } catch (...) {
      restore();
      throw;
    }
  }
  restore();
}

void ThreadPool::run(std::ptrdiff_t nchunks, const std::function<void(std::ptrdiff_t)>& fn,
                     arch::Schedule sched, const char* site, const robust::CancelToken* cancel) {
  if (nchunks <= 0) return;
  if (t_in_pool_run || workers_.empty()) {
    run_inline(nchunks, fn, cancel);
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mu_);
  fn_ = &fn;
  nchunks_ = nchunks;
  sched_ = sched;
  cancel_ = cancel;
  ticket_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  suppressed_.store(0, std::memory_order_relaxed);
  error_ = nullptr;
  cpu_min_ = cpu_max_ = cpu_sum_ = 0.0;
  cpu_count_ = 0;

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++gen_;
    run_live_ = true;
  }
  cv_work_.notify_all();

  // The caller participates too, under the pool's denormal policy for the
  // duration, so its chunks compute under the same FP state as the
  // workers' (restored before returning).
  const std::uint32_t caller_fp = robust::save_fp_state();
  robust::install_denormal_ftz();
  {
    FINBENCH_SPAN(site);
    participate(0);
  }
  robust::restore_fp_state(caller_fp);

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] {
      return completed_.load(std::memory_order_acquire) == nchunks_ && active_workers_ == 0;
    });
    run_live_ = false;
  }

  if (obs::parallel_timing_enabled() && cpu_count_ > 0) {
    obs::record_parallel_region(site, cpu_count_, cpu_min_, cpu_max_, cpu_sum_);
  }

  cancel_ = nullptr;

  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    const int suppressed = suppressed_.load(std::memory_order_relaxed);
    if (suppressed == 0) std::rethrow_exception(e);
    // Annotate the first exception with how many others it shadowed. The
    // wrapped type is std::runtime_error (still a std::exception), which
    // is the strongest guarantee the original heterogeneous set allowed.
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      throw std::runtime_error(std::string(ex.what()) + " [" + std::to_string(suppressed) +
                               " secondary worker exception(s) suppressed]");
    } catch (...) {
      throw;  // non-std exception: nothing to annotate, rethrow as-is
    }
  }
}

}  // namespace finbench::engine
