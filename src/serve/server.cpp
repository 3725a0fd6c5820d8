// serve::Server — submission queue drain, admission control, coalescing
// dispatch (finbench/serve/server.hpp, docs/serve.md).
//
// Threading model: any number of client threads submit through the
// lock-free ring; one dispatcher thread drains it, groups fusable
// requests, and prices each group through Engine::price_group — which
// parallelizes *inside* the fused batch on the engine::ThreadPool, so the
// heavy lifting runs on the existing pool workers, not the dispatcher.
// The dispatcher's own loop is allocation-free at steady state: working
// vectors keep their capacity, the group scratch keeps its arena blocks
// and engine Scratch, and the wake-up handshake only touches a mutex when
// the dispatcher has declared itself idle.

#include "finbench/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#include "finbench/obs/metrics.hpp"

namespace finbench::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Admission accounting: the workload bytes a job keeps in flight from
// accept to completion. A path job carries only a count and is charged
// one double per path.
std::size_t workload_bytes(const core::PortfolioView& v) {
  return v.layout == core::Layout::kPaths ? v.npaths * sizeof(double) : core::view_bytes(v);
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(cfg_.engine != nullptr ? cfg_.engine : &engine::Engine::shared()),
      queue_(cfg_.queue_capacity) {
  const std::string& labels = cfg_.histogram_labels;
  hist_request_ = labels.empty() ? &obs::histogram("serve.request.seconds")
                                 : &obs::histogram("serve.request.seconds", labels);
  hist_queue_ = labels.empty() ? &obs::histogram("serve.queue.seconds")
                               : &obs::histogram("serve.queue.seconds", labels);
  hist_batch_ = labels.empty() ? &obs::histogram("serve.batch.size")
                               : &obs::histogram("serve.batch.size", labels);
  const std::size_t burst = cfg_.max_batch_requests > 0 ? cfg_.max_batch_requests : 1;
  pending_.reserve(burst);
  claimed_.reserve(burst);
  members_.reserve(burst);
  group_jobs_.reserve(burst);
  retryq_.reserve(burst);
  retry_budget_.configure(cfg_.retry_tokens_per_request, cfg_.retry_burst);
  brownout_.configure(cfg_.brownout);
  accepting_.store(true, std::memory_order_release);
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  stop_.store(false, std::memory_order_release);
  accepting_.store(true, std::memory_order_release);
  dispatcher_ = std::thread([this] { run_dispatcher(); });
  started_ = true;
}

void Server::stop() {
  accepting_.store(false, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    idle_cv_.notify_all();
  }
  if (started_ && dispatcher_.joinable()) dispatcher_.join();
  started_ = false;
}

robust::Status Server::submit(PricingJob& job) {
  static obs::Counter& c_submitted = obs::counter("serve.submitted");
  static obs::Counter& c_shed_queue = obs::counter("serve.shed.queue_full");
  static obs::Counter& c_shed_bytes = obs::counter("serve.shed.bytes");
  // Aggregate admission counter plus a per-cause split, so a dashboard
  // can tell "ring too small" from "workloads too large" at a glance.
  static obs::Counter& c_admission = obs::counter("robust.admission.shed");
  static obs::Counter& c_admission_queue = obs::counter("robust.admission.shed_queue_full");
  static obs::Counter& c_admission_bytes = obs::counter("robust.admission.shed_bytes");

  if (!accepting_.load(std::memory_order_acquire)) {
    n_shed_queue_.fetch_add(1, std::memory_order_relaxed);
    c_shed_queue.add(1);
    c_admission.add(1);
    c_admission_queue.add(1);
    return robust::Status::resource_exhausted("serve: server is stopped");
  }
  const std::size_t bytes = workload_bytes(job.request.portfolio);
  if (cfg_.max_inflight_bytes > 0) {
    const std::size_t prev = inflight_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (prev + bytes > cfg_.max_inflight_bytes) {
      inflight_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      n_shed_bytes_.fetch_add(1, std::memory_order_relaxed);
      c_shed_bytes.add(1);
      c_admission.add(1);
      c_admission_bytes.add(1);
      return robust::Status::resource_exhausted("serve: in-flight byte cap reached");
    }
  }
  job.bytes_ = bytes;
  job.queue_seconds = 0.0;
  job.total_seconds = 0.0;
  job.batch_size = 0;
  job.submit_ns_ = now_ns();
  job.attempts_ = 1;
  job.retry_ns_ = 0;
  job.backoff_s_ = 0.0;
  job.rng_state_ = job.submit_ns_ ^ 0x9e3779b97f4a7c15ull;
  job.degraded_ = false;
  job.degrade_level_ = 0;
  job.state_.store(PricingJob::kQueued, std::memory_order_release);
  if (!queue_.try_push(&job)) {
    job.state_.store(PricingJob::kIdle, std::memory_order_relaxed);
    inflight_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    n_shed_queue_.fetch_add(1, std::memory_order_relaxed);
    c_shed_queue.add(1);
    c_admission.add(1);
    c_admission_queue.add(1);
    return robust::Status::resource_exhausted("serve: submission queue full");
  }
  n_submitted_.fetch_add(1, std::memory_order_relaxed);
  c_submitted.add(1);
  // Dekker handshake with the idle dispatcher: the push above must be
  // visible before we decide whether a wake-up is needed (the dispatcher
  // publishes idle_sleeping_ and then re-checks the queue).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (idle_sleeping_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lk(idle_mu_);
    idle_cv_.notify_one();
  }
  return {};
}

void Server::wait(const PricingJob& job) {
  if (job.done()) return;
  std::unique_lock<std::mutex> lk(done_mu_);
  done_cv_.wait(lk, [&job] { return job.done(); });
}

Server::Stats Server::stats() const {
  Stats s;
  s.submitted = n_submitted_.load(std::memory_order_relaxed);
  s.completed = n_completed_.load(std::memory_order_relaxed);
  s.shed_queue = n_shed_queue_.load(std::memory_order_relaxed);
  s.shed_bytes = n_shed_bytes_.load(std::memory_order_relaxed);
  s.expired_in_queue = n_expired_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.coalesced = n_coalesced_.load(std::memory_order_relaxed);
  s.max_batch = n_max_batch_.load(std::memory_order_relaxed);
  s.retries = n_retries_.load(std::memory_order_relaxed);
  s.retry_denied = n_retry_denied_.load(std::memory_order_relaxed);
  s.brownout_shed = n_brownout_shed_.load(std::memory_order_relaxed);
  s.brownout_level = brownout_.level();
  return s;
}

void Server::run_dispatcher() {
  int idle_spins = 0;
  for (;;) {
    pending_.clear();
    const std::uint64_t now = now_ns();
    brownout_.evaluate(1e-9 * static_cast<double>(now));
    const bool stopping = stop_.load(std::memory_order_acquire);
    // On stop, waiting out backoffs would only delay shutdown: flush every
    // pending retry and dispatch it now.
    const std::uint64_t next_retry = collect_due_retries(now, stopping);
    PricingJob* j = nullptr;
    while (pending_.size() < cfg_.max_batch_requests && (j = queue_.try_pop()) != nullptr) {
      pending_.push_back(j);
    }
    if (pending_.empty()) {
      if (stopping && queue_.approx_size() == 0 && retryq_.empty()) return;
      if (++idle_spins < 64) {
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lk(idle_mu_);
      idle_sleeping_.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (queue_.approx_size() == 0 && !stop_.load(std::memory_order_acquire)) {
        // The idle nap must not overshoot the earliest retry's not-before
        // time, or a lone retried job would sit past its backoff.
        std::chrono::microseconds nap(200);
        if (next_retry != 0) {
          const std::uint64_t n2 = now_ns();
          const std::uint64_t gap = next_retry > n2 ? next_retry - n2 : 1;
          nap = std::min(nap, std::chrono::microseconds(gap / 1000 + 1));
        }
        idle_cv_.wait_for(lk, nap);
      }
      idle_sleeping_.store(false, std::memory_order_relaxed);
      continue;
    }
    idle_spins = 0;
    process(now_ns());
  }
}

std::uint64_t Server::collect_due_retries(std::uint64_t now, bool flush) {
  if (retryq_.empty()) return 0;
  std::uint64_t next = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < retryq_.size(); ++i) {
    PricingJob* job = retryq_[i];
    if (flush || job->retry_ns_ <= now) {
      pending_.push_back(job);
    } else {
      if (next == 0 || job->retry_ns_ < next) next = job->retry_ns_;
      retryq_[keep++] = job;
    }
  }
  retryq_.resize(keep);
  return next;
}

void Server::process(std::uint64_t now) {
  static obs::Counter& c_batches = obs::counter("serve.batches");
  static obs::Counter& c_coalesced = obs::counter("serve.coalesced.requests");
  static obs::Counter& c_expired = obs::counter("serve.expired_in_queue");
  static obs::Counter& c_deadline = obs::counter("robust.deadline.expired");
  static obs::Counter& c_bshed = obs::counter("resilience.brownout.shed");

  claimed_.assign(pending_.size(), 0);
  bool completed_any = false;

  // Queue-expiry pass: a job whose deadline budget is already gone
  // completes immediately — it never blocks the jobs behind it, and the
  // engine never sees it.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PricingJob& job = *pending_[i];
    job.queue_seconds = 1e-9 * static_cast<double>(now - job.submit_ns_);
    const double budget = job.request.deadline_seconds;
    if (budget > 0.0 && job.queue_seconds >= budget) {
      job.result.reset(job.request.kernel_id);
      job.result.chunks_deadline = 1;
      job.result.status.set(robust::StatusCode::kDeadlineExceeded,
                            "serve: deadline expired while queued");
      n_expired_.fetch_add(1, std::memory_order_relaxed);
      c_expired.add(1);
      c_deadline.add(1);
      claimed_[i] = 1;
      complete(job, now, 0);
      completed_any = true;
    }
  }

  // Brownout pass: at the top ladder level, below-priority requests are
  // shed before dispatch; at any level > 0, opted-in requests get their
  // accuracy knobs scaled (within their declared floors) — the scaled
  // knobs form a new TuneKey, so the race picks a variant that wins at
  // the degraded accuracy. Knobs are restored at completion.
  const int blevel = brownout_.level();
  if (blevel > 0) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (claimed_[i] != 0) continue;
      PricingJob& job = *pending_[i];
      if (brownout_.shed(job.request.degrade.priority)) {
        job.result.reset(job.request.kernel_id);
        job.result.status.set(robust::StatusCode::kResourceExhausted,
                              "serve: shed by brownout at max level");
        brownout_.note_shed();
        n_brownout_shed_.fetch_add(1, std::memory_order_relaxed);
        c_bshed.add(1);
        claimed_[i] = 1;
        // kResourceExhausted is retryable: pressure passes. Route through
        // finish() so an opted-in job backs off and tries again.
        finish(job, now, 0);
        completed_any = true;
        continue;
      }
      job.saved_npath_ = job.request.npath;
      job.saved_steps_ = job.request.steps;
      job.degraded_ = brownout_.apply(job.request.degrade, job.request.npath, job.request.steps);
      job.degrade_level_ = job.degraded_ ? blevel : 0;
    }
  }
  if (completed_any) signal_done();

  // Greedy coalescing: seed with the oldest unclaimed job, sweep the rest
  // of the drained burst for fusable partners, price the group as one
  // fused batch. With coalescing off every job is its own group.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (claimed_[i] != 0) continue;
    members_.clear();
    group_jobs_.clear();
    PricingJob* seed = pending_[i];
    members_.push_back(seed);
    claimed_[i] = 1;
    std::size_t total = seed->request.portfolio.size();
    if (cfg_.coalesce) {
      for (std::size_t k = i + 1;
           k < pending_.size() && members_.size() < cfg_.max_batch_requests; ++k) {
        if (claimed_[k] != 0) continue;
        PricingJob* cand = pending_[k];
        const std::size_t m = cand->request.portfolio.size();
        if (total + m > cfg_.max_batch_items) continue;
        if (!engine_->fusable(seed->request, cand->request)) continue;
        members_.push_back(cand);
        claimed_[k] = 1;
        total += m;
      }
    }
    // A fused group runs under the most urgent member's budget.
    double deadline = 0.0;
    for (PricingJob* mjob : members_) {
      const double d = mjob->request.deadline_seconds;
      if (d > 0.0 && (deadline <= 0.0 || d < deadline)) deadline = d;
    }
    group_scratch_.deadline_seconds = deadline;
    for (PricingJob* mjob : members_) {
      group_jobs_.push_back({&mjob->request, &mjob->result});
    }
    engine_->price_group({group_jobs_.data(), group_jobs_.size()}, group_scratch_);
    const std::uint64_t end = now_ns();
    hist_batch_->record_ns(members_.size());
    n_batches_.fetch_add(1, std::memory_order_relaxed);
    c_batches.add(1);
    if (members_.size() > 1) {
      n_coalesced_.fetch_add(members_.size(), std::memory_order_relaxed);
      c_coalesced.add(members_.size());
    }
    std::uint64_t prev_max = n_max_batch_.load(std::memory_order_relaxed);
    while (members_.size() > prev_max &&
           !n_max_batch_.compare_exchange_weak(prev_max, members_.size(),
                                               std::memory_order_relaxed)) {
    }
    for (PricingJob* mjob : members_) finish(*mjob, end, members_.size());
    signal_done();
  }
}

// Undo a brownout knob scale so a retried (or completed) job's request is
// back to what the caller submitted.
void Server::restore_knobs(PricingJob& job) {
  if (!job.degraded_) return;
  job.request.npath = job.saved_npath_;
  job.request.steps = job.saved_steps_;
  job.degraded_ = false;
  job.degrade_level_ = 0;
}

void Server::finish(PricingJob& job, std::uint64_t end_ns, std::size_t batch_size) {
  // batch_size > 0 means the job was actually dispatched; only a real
  // first-attempt dispatch earns retry-budget tokens.
  if (batch_size > 0 && job.attempts_ == 1) retry_budget_.on_primary();
  if (maybe_retry(job, end_ns)) return;
  complete(job, end_ns, batch_size);
}

bool Server::maybe_retry(PricingJob& job, std::uint64_t end_ns) {
  static obs::Counter& c_attempts = obs::counter("resilience.retry.attempts");
  static obs::Counter& c_denied = obs::counter("resilience.retry.denied");
  const resilience::RetryPolicy& pol = job.request.retry;
  if (!pol.enabled() || job.attempts_ >= pol.max_attempts) return false;
  const robust::StatusCode code = job.result.status.code();
  if (code != robust::StatusCode::kKernelError &&
      code != robust::StatusCode::kResourceExhausted) {
    return false;  // wrong, done, or out of time — a retry cannot help
  }
  const double backoff = resilience::decorrelated_jitter(
      job.rng_state_, pol.base_backoff_seconds, pol.max_backoff_seconds, job.backoff_s_);
  const double budget = job.request.deadline_seconds;
  if (budget > 0.0) {
    const double elapsed = 1e-9 * static_cast<double>(end_ns - job.submit_ns_);
    if (elapsed + backoff >= budget) return false;  // no headroom for another attempt
  }
  if (!retry_budget_.try_acquire()) {
    n_retry_denied_.fetch_add(1, std::memory_order_relaxed);
    c_denied.add(1);
    return false;
  }
  restore_knobs(job);  // next attempt re-applies whatever level then holds
  job.backoff_s_ = backoff;
  job.retry_ns_ = end_ns + static_cast<std::uint64_t>(backoff * 1e9);
  ++job.attempts_;
  n_retries_.fetch_add(1, std::memory_order_relaxed);
  c_attempts.add(1);
  retryq_.push_back(&job);
  return true;
}

void Server::complete(PricingJob& job, std::uint64_t end_ns, std::size_t batch_size) {
  static obs::Counter& c_completed = obs::counter("serve.completed");
  static obs::Counter& c_degraded = obs::counter("resilience.brownout.degraded");
  job.result.attempts = job.attempts_;
  if (job.degraded_) {
    // Annotate what actually executed, then put the caller's knobs back.
    job.result.brownout_level = job.degrade_level_;
    job.result.npath_applied = job.request.npath;
    job.result.steps_applied = job.request.steps;
    if (job.result.status.code() == robust::StatusCode::kOk) {
      job.result.status.set(robust::StatusCode::kDegraded,
                            "serve: browned out (accuracy knobs reduced)");
    }
    c_degraded.add(1);
    restore_knobs(job);
  }
  job.total_seconds = 1e-9 * static_cast<double>(end_ns - job.submit_ns_);
  job.batch_size = batch_size;
  const bool miss = job.result.status.code() == robust::StatusCode::kDeadlineExceeded ||
                    job.result.chunks_deadline > 0;
  brownout_.on_complete(job.queue_seconds, miss, 1e-9 * static_cast<double>(end_ns));
  hist_request_->record_seconds(job.total_seconds);
  hist_queue_->record_seconds(job.queue_seconds);
  inflight_bytes_.fetch_sub(job.bytes_, std::memory_order_relaxed);
  n_completed_.fetch_add(1, std::memory_order_relaxed);
  c_completed.add(1);
  if (job.on_done != nullptr) job.on_done(job.on_done_ctx, job);
  job.state_.store(PricingJob::kDone, std::memory_order_release);
}

// One wakeup per dispatch round, not per member: a fused batch completing
// N jobs must not bounce the scheduler between the dispatcher and a
// waiting client N times. Taking (and releasing) done_mu_ before the
// notify orders every state flip above against a waiter's predicate
// check, so no completion can fall between wait()'s check and its sleep.
void Server::signal_done() {
  { std::lock_guard<std::mutex> lk(done_mu_); }
  done_cv_.notify_all();
}

}  // namespace finbench::serve
