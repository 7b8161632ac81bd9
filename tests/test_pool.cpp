// Unit tests of the work-stealing thread pool: completion, exception
// propagation from workers, stealing under imbalanced loads, clean
// shutdown with work still queued, and the caller-participating
// parallel_for fork-join.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/pool.h"

namespace merlin {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i)
    futs.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitIdleDrains) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("boom from worker"); });
  EXPECT_NO_THROW(ok.get());
  try {
    bad.get();
    FAIL() << "expected the worker exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from worker");
  }
  // The pool survives a throwing task and keeps executing.
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); }).get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, StealsUnderImbalancedLoad) {
  // Two workers, each pinned by one blocker task; 40 small tasks are dealt
  // round-robin (20 per queue) behind them.  Releasing only blocker A leaves
  // one worker free: it must drain its own 20 and steal the other queue's 20
  // — the blocked worker cannot run them.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release_a{false}, release_b{false};
  std::vector<std::future<void>> blockers;
  blockers.push_back(pool.submit([&started, &release_a] {
    started.fetch_add(1);
    while (!release_a.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }));
  blockers.push_back(pool.submit([&started, &release_b] {
    started.fetch_add(1);
    while (!release_b.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }));
  // Both workers must be pinned before the small tasks are dealt, or a
  // worker could drain its own share early without ever stealing.
  while (started.load() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::atomic<int> small_ran{0};
  std::vector<std::future<void>> smalls;
  for (int i = 0; i < 40; ++i)
    smalls.push_back(pool.submit([&small_ran] { small_ran.fetch_add(1); }));

  release_a.store(true);
  for (auto& f : smalls) f.get();  // all smalls ran with B still blocked
  EXPECT_EQ(small_ran.load(), 40);
  EXPECT_GE(pool.steal_count(), 20u);  // the foreign queue's share

  release_b.store(true);
  for (auto& f : blockers) f.get();
}

TEST(ThreadPool, WorkerIndexIsStableAndScoped) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_index(), ThreadPool::npos);  // caller is not a worker
  std::mutex mu;
  std::set<std::size_t> seen;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 60; ++i)
    futs.push_back(pool.submit([&] {
      const std::size_t wi = pool.worker_index();
      std::lock_guard<std::mutex> lk(mu);
      seen.insert(wi);
    }));
  for (auto& f : futs) f.get();
  for (std::size_t wi : seen) EXPECT_LT(wi, pool.size());
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    // Destroy immediately: all 100 queued tasks must still run.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, RapidDestroyAfterConcurrentSubmitsIsClean) {
  // Hammers the window the submit() fix closed: two threads submit
  // concurrently, and the pool is destroyed the moment the work is handed
  // over.  With the old notify-after-unlock, one submitter's delayed
  // notify_one could land on the destroyed condition_variable after a peer's
  // notify already let the workers drain everything (TSan catches the
  // use-after-free; without TSan this still exercises the interleaving).
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    auto pool = std::make_unique<ThreadPool>(2);
    std::thread submitter([&] {
      for (int i = 0; i < 8; ++i) pool->submit([&ran] { ran.fetch_add(1); });
    });
    for (int i = 0; i < 8; ++i) pool->submit([&ran] { ran.fetch_add(1); });
    submitter.join();
    pool.reset();  // destructor drains everything that was accepted
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(ThreadPool, SubmitFromWorkerLandsOnOwnQueue) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<bool> ran_inline{false};
  pool.submit([&] {
        // A task submitted from inside a worker is queued (on that worker's
        // own queue), not run inside submit(), and still completes.
        const std::thread::id parent = std::this_thread::get_id();
        bool in_submit = true;  // read only on this thread, if ever inline
        pool.submit([&ran, &ran_inline, &in_submit, parent] {
          if (std::this_thread::get_id() == parent && in_submit)
            ran_inline = true;
          ran.fetch_add(1);
        });
        in_submit = false;
        // Keep in_submit alive until the child ran (the idle worker steals it).
        while (ran.load() == 0) std::this_thread::yield();
      })
      .get();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(ran_inline.load());
}

// -- parallel_for -------------------------------------------------------------

// Spins until `flag` is set, giving up after a generous bound so a broken
// pool fails the test instead of hanging it.
bool wait_for(const std::atomic<bool>& flag) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnceOnDistinctLanes) {
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), new ThreadPool(3)}) {
    std::unique_ptr<ThreadPool> owned(pool);
    const std::size_t lanes = fork_lanes(pool, 100);
    EXPECT_EQ(lanes, pool == nullptr ? 1u : 3u);
    std::vector<std::atomic<int>> hits(100);
    std::vector<std::atomic<int>> lane_busy(lanes);
    std::atomic<bool> shared_lane{false};
    parallel_for(pool, hits.size(), [&](std::size_t i, std::size_t lane) {
      ASSERT_LT(lane, lanes);
      // One participant per lane at a time: per-lane scratch needs no lock.
      if (lane_busy[lane].fetch_add(1) != 0) shared_lane = true;
      hits[i].fetch_add(1);
      lane_busy[lane].fetch_sub(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_FALSE(shared_lane.load());
  }
  EXPECT_EQ(fork_lanes(nullptr, 0), 1u);
}

TEST(ThreadPool, ParallelForCompletesWhenEveryWorkerIsBusy) {
  // Both workers pinned: one by a blocker, the other by the caller itself.
  // The helper the caller queues can never start, so the caller must cover
  // the whole range alone — and must not wait for that helper.
  ThreadPool pool(2);
  std::atomic<bool> release{false}, blocker_started{false};
  auto blocker = pool.submit([&] {
    blocker_started = true;
    (void)wait_for(release);
  });
  ASSERT_TRUE(wait_for(blocker_started));
  std::atomic<int> ran{0};
  std::atomic<bool> returned{false}, ran_after_return{false};
  auto caller = pool.submit([&] {
    parallel_for(&pool, 50, [&](std::size_t, std::size_t lane) {
      if (returned.load()) ran_after_return = true;
      EXPECT_EQ(lane, 0u);
      ran.fetch_add(1);
    });
    returned = true;
  });
  EXPECT_EQ(caller.wait_for(std::chrono::seconds(20)), std::future_status::ready);
  caller.get();
  EXPECT_EQ(ran.load(), 50);
  // Only now can the stale helper start: it must claim nothing.
  release = true;
  blocker.get();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_FALSE(ran_after_return.load());
}

TEST(ThreadPool, ParallelForHelpersStartingAfterReturnAreNoOps) {
  // The body and everything it references die with the call; a helper that
  // is dequeued afterwards must not touch them (ASan would flag it).
  ThreadPool pool(2);
  std::atomic<bool> release{false}, blocker_started{false};
  auto blocker = pool.submit([&] {
    blocker_started = true;
    (void)wait_for(release);
  });
  ASSERT_TRUE(wait_for(blocker_started));
  pool.submit([&] {
        auto scratch = std::make_unique<std::vector<int>>(8, 0);
        parallel_for(&pool, scratch->size(),
                     [&](std::size_t i, std::size_t) { (*scratch)[i] = 1; });
        for (int v : *scratch) EXPECT_EQ(v, 1);
      })
      .get();
  release = true;
  blocker.get();
  pool.wait_idle();  // the stale helper has run by now, as a no-op
}

TEST(ThreadPool, ParallelForCallerNeverRunsAnotherQueuedTask) {
  // Index 1 runs on a helper (both indices are in flight at once) and
  // queues a foreign task while the caller is waiting for it.  The caller
  // must leave that task alone until parallel_for has returned.
  ThreadPool pool(2);
  std::atomic<int> entered{0};
  std::atomic<bool> both_in{false}, caller_waiting{false};
  std::atomic<bool> foreign_ran_in_caller{false};
  std::atomic<std::thread::id> caller_id{};
  std::future<void> foreign;
  pool.submit([&] {
        caller_id = std::this_thread::get_id();
        caller_waiting = true;
        parallel_for(&pool, 2, [&](std::size_t, std::size_t lane) {
          if (entered.fetch_add(1) + 1 == 2) both_in = true;
          ASSERT_TRUE(wait_for(both_in));
          if (lane == 0) return;
          foreign = pool.submit([&] {
            if (std::this_thread::get_id() == caller_id.load() &&
                caller_waiting.load())
              foreign_ran_in_caller = true;
          });
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        });
        caller_waiting = false;
      })
      .get();
  foreign.get();
  EXPECT_FALSE(foreign_ran_in_caller.load());
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexAfterClaimedIndicesFinish) {
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), new ThreadPool(4)}) {
    std::unique_ptr<ThreadPool> owned(pool);
    std::atomic<int> active{0};
    try {
      parallel_for(pool, 64, [&](std::size_t i, std::size_t) {
        active.fetch_add(1);
        // The lowest thrower is the slowest: higher ones throw first.
        if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(30));
        active.fetch_sub(1);
        if (i == 5 || i == 17 || i == 40)
          throw std::runtime_error("index " + std::to_string(i));
      });
      FAIL() << "expected a rethrown body exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 5");
      EXPECT_EQ(active.load(), 0);  // nothing claimed is still running
    }
  }
}

}  // namespace
}  // namespace merlin
