// Tests for the persistent engine thread pool: chunk coverage under ticket
// self-scheduling, nested and concurrent submission, exception propagation
// and cancellation.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "finbench/engine/thread_pool.hpp"
#include "finbench/obs/metrics.hpp"
#include "finbench/robust/deadline.hpp"

using namespace finbench;
using engine::ThreadPool;

TEST(ThreadPool, EveryChunkRunsExactlyOnceDynamic) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::ptrdiff_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.run(n, [&](std::ptrdiff_t c) { hits[c].fetch_add(1); });
  for (std::ptrdiff_t c = 0; c < n; ++c) EXPECT_EQ(hits[c].load(), 1) << c;
}

TEST(ThreadPool, SizeOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  const auto caller = std::this_thread::get_id();
  std::ptrdiff_t ran = 0;
  pool.run(17, [&](std::ptrdiff_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;  // serial: no race
  });
  EXPECT_EQ(ran, 17);
}

TEST(ThreadPool, ZeroChunksIsANoop) {
  ThreadPool pool(2);
  pool.run(0, [](std::ptrdiff_t) { FAIL() << "chunk body ran"; });
}

TEST(ThreadPool, NestedRunExecutesInline) {
  ThreadPool pool(4);
  std::atomic<int> inner{0};
  pool.run(8, [&](std::ptrdiff_t) {
    // A nested run must not deadlock on the pool's run state; it executes
    // the inner loop on this participant.
    pool.run(5, [&](std::ptrdiff_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 8 * 5);
}

TEST(ThreadPool, ConcurrentSubmissionsSerialize) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr std::ptrdiff_t n = 64;
  std::vector<std::atomic<int>> done(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      pool.run(n, [&, s](std::ptrdiff_t) { done[s].fetch_add(1); });
    });
  }
  for (auto& t : submitters) t.join();
  for (int s = 0; s < kSubmitters; ++s) EXPECT_EQ(done[s].load(), n) << s;
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(100,
               [](std::ptrdiff_t c) {
                 if (c == 57) throw std::runtime_error("chunk 57");
               }),
      std::runtime_error);

  // The pool must come back clean: a subsequent run covers every chunk.
  std::vector<std::atomic<int>> hits(50);
  pool.run(50, [&](std::ptrdiff_t c) { hits[c].fetch_add(1); });
  for (int c = 0; c < 50; ++c) EXPECT_EQ(hits[c].load(), 1) << c;
}

namespace {

std::uint64_t suppressed_counter() {
  for (const auto& [name, v] : obs::snapshot_metrics().counters) {
    if (name == "pool.exceptions.suppressed") return v;
  }
  return 0;
}

}  // namespace

TEST(ThreadPool, SecondaryExceptionsAreCountedAndNoted) {
  ThreadPool pool(4);
  const std::uint64_t before = suppressed_counter();

  // A spin barrier holds every participant inside its chunk until all four
  // chunks have started, so all four throw: one propagates, the other
  // three must be suppressed — but visibly, in the counter and the
  // rethrown message, never silently.
  std::atomic<int> arrived{0};
  try {
    pool.run(4, [&](std::ptrdiff_t) {
      arrived.fetch_add(1);
      while (arrived.load() < 4) std::this_thread::yield();
      throw std::runtime_error("chunk fault");
    });
    FAIL() << "run did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk fault"), std::string::npos) << what;
    EXPECT_NE(what.find("3 secondary worker exception(s) suppressed"), std::string::npos)
        << what;
  }
  EXPECT_EQ(suppressed_counter(), before + 3);

  // A lone exception keeps the plain message: nothing was suppressed.
  try {
    pool.run(8, [](std::ptrdiff_t c) {
      if (c == 3) throw std::runtime_error("solo fault");
    });
    FAIL() << "run did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "solo fault");
  }
}

TEST(ThreadPool, CancelTokenStopsRemainingChunks) {
  ThreadPool pool(2);
  robust::CancelToken token;
  std::atomic<int> ran{0};
  // The token trips inside the first chunk; the poll at every chunk
  // boundary means each participant runs at most the chunk it already
  // claimed, so the run returns (no throw) having skipped nearly all of
  // the 1000 chunks.
  pool.run(1000, [&](std::ptrdiff_t) {
    ran.fetch_add(1);
    token.cancel();
  }, "pool", &token);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), pool.size());

  // The token is sticky: a fresh run with the same expired token runs
  // nothing until reset().
  pool.run(10, [&](std::ptrdiff_t) { ran.fetch_add(1000); },
           "pool", &token);
  EXPECT_LE(ran.load(), pool.size());
  token.reset();
  std::atomic<int> after{0};
  pool.run(10, [&](std::ptrdiff_t) { after.fetch_add(1); },
           "pool", &token);
  EXPECT_EQ(after.load(), 10);
}
