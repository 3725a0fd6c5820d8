// The nested fork-join shim (engine::TaskGroup over ThreadPool): spawn /
// help-first join semantics, nesting from inside pool chunks, exception
// propagation, and the no-deadlock guarantees the intra-option kernels
// (banded binomial segments, Monte Carlo path blocks) rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "finbench/engine/task_group.hpp"
#include "finbench/engine/thread_pool.hpp"
#include "finbench/obs/metrics.hpp"

using namespace finbench;
using engine::TaskGroup;
using engine::ThreadPool;

TEST(TaskGroup, RunsEveryTaskStandalone) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  TaskGroup g(pool);
  for (int i = 0; i < 32; ++i) {
    g.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  g.join();
  EXPECT_EQ(ran.load(), 32);
}

TEST(TaskGroup, JoinIsIdempotentAndGroupReusable) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup g(pool);
  g.join();  // nothing spawned: returns immediately
  g.spawn([&ran] { ++ran; });
  g.join();
  g.spawn([&ran] { ++ran; });
  g.spawn([&ran] { ++ran; });
  g.join();
  EXPECT_EQ(ran.load(), 3);
}

TEST(TaskGroup, NoDeadlockWithPoolOfOne) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  TaskGroup g(pool);
  for (int i = 0; i < 100; ++i) {
    g.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  g.join();  // the joiner executes everything itself, in spawn order
  EXPECT_EQ(ran.load(), 100);
}

TEST(TaskGroup, FifoOrderWhenJoinerExecutes) {
  // With a pool of one, the joiner is the only executor, so the observed
  // order IS the queue order: spawn order. Tasks are independent, so no
  // result depends on it; a one-thread run simply executes a group's tasks
  // in the order they were written.
  ThreadPool pool(1);
  std::vector<int> order;
  TaskGroup g(pool);
  for (int i = 0; i < 16; ++i) {
    g.spawn([&order, i] { order.push_back(i); });
  }
  g.join();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TaskGroup, SpawnBeyondCapacityRunsInline) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  TaskGroup g(pool);
  const int n = TaskGroup::kMaxTasks + 40;
  for (int i = 0; i < n; ++i) {
    g.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  // No worker drains a pool of one before join: exactly the spawns past
  // capacity have run, inline on the spawner.
  EXPECT_EQ(ran.load(), n - TaskGroup::kMaxTasks);
  g.join();
  EXPECT_EQ(ran.load(), n);
}

TEST(TaskGroup, NestedSpawnFromPoolWorker) {
  // A chunk running on a pool participant spawns subtasks and joins them —
  // the tentpole's engine handoff shape. Idle participants may help.
  ThreadPool pool(4);
  std::atomic<int> leaf{0};
  pool.run(8, [&](std::ptrdiff_t) {
    TaskGroup g(pool);
    for (int i = 0; i < 8; ++i) {
      g.spawn([&leaf] { leaf.fetch_add(1, std::memory_order_relaxed); });
    }
    g.join();
  });
  EXPECT_EQ(leaf.load(), 64);
}

TEST(TaskGroup, NestedGroupInsideTask) {
  // A task spawning into its own nested group (fork-join recursion).
  ThreadPool pool(4);
  std::atomic<int> leaf{0};
  const double before = obs::counter("engine.tasks.depth").value();
  TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i) {
    outer.spawn([&pool, &leaf] {
      TaskGroup inner(pool);
      for (int j = 0; j < 4; ++j) {
        inner.spawn([&leaf] { leaf.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.join();
    });
  }
  outer.join();
  EXPECT_EQ(leaf.load(), 16);
  // At least the inner tasks the outer tasks executed themselves (help-first
  // join inside a task) count as nested executions.
  EXPECT_GE(obs::counter("engine.tasks.depth").value(), before);
}

TEST(TaskGroup, ExceptionPropagatesAcrossJoin) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  TaskGroup g(pool);
  for (int i = 0; i < 16; ++i) {
    g.spawn([&ran, i] {
      if (i == 7) throw std::runtime_error("boom in task 7");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(g.join(), std::runtime_error);
  EXPECT_EQ(ran.load(), 15);  // every other task still ran
  // The group is clean after the rethrow: reusable without a stale error.
  g.spawn([&ran] { ++ran; });
  g.join();
  EXPECT_EQ(ran.load(), 16);
}

TEST(TaskGroup, SecondaryTaskExceptionsAreCounted) {
  ThreadPool pool(1);
  const double before = obs::counter("pool.exceptions.suppressed").value();
  TaskGroup g(pool);
  for (int i = 0; i < 3; ++i) {
    g.spawn([] { throw std::runtime_error("each task throws"); });
  }
  EXPECT_THROW(g.join(), std::runtime_error);
  EXPECT_GE(obs::counter("pool.exceptions.suppressed").value(), before + 2);
}

TEST(TaskGroup, ExceptionInsidePoolChunkPropagatesThroughRun) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run(4,
                        [&](std::ptrdiff_t c) {
                          TaskGroup g(pool);
                          g.spawn([c] {
                            if (c == 2) throw std::runtime_error("task under chunk 2");
                          });
                          g.join();
                        }),
               std::runtime_error);
  // The pool survives for the next run.
  std::atomic<int> ran{0};
  pool.run(4, [&](std::ptrdiff_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(TaskGroup, SpawnAndStealCountersAdvance) {
  ThreadPool pool(4);
  const double spawned0 = obs::counter("engine.tasks.spawned").value();
  std::atomic<int> ran{0};
  pool.run(4, [&](std::ptrdiff_t) {
    TaskGroup g(pool);
    for (int i = 0; i < 16; ++i) {
      g.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    g.join();
  });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_GE(obs::counter("engine.tasks.spawned").value(), spawned0 + 64);
}
