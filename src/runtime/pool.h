#pragma once
// Work-stealing thread pool for circuit-scale batch execution.
//
// Each worker owns a deque; `submit` deals tasks round-robin across the
// worker queues (or onto the submitting worker's own queue when called from
// inside the pool).  A worker pops from the back of its own queue (LIFO, hot
// in cache) and, when empty, steals from the front of the longest other
// queue (FIFO, oldest first) so an imbalanced shard distribution still keeps
// every core busy.  All queues hang off one mutex: per-net flow work is
// milliseconds-scale, so queue contention is irrelevant next to the tasks
// themselves, and a single lock keeps the pool trivially ThreadSanitizer-
// clean.
//
// Exceptions thrown by a task are captured in the task's future and rethrown
// from `future::get()` on the caller's thread.  Destruction drains: every
// task already submitted runs to completion before the workers join, so
// dropping a pool with queued work loses nothing.
//
// `parallel_for` is the fine-grained fork-join on top (BUBBLE_CONSTRUCT's
// groups of one DP layer): the caller works through the index range itself
// and queues helper tasks that join in when a worker is free, so it cannot
// deadlock even when every worker is busy — or is the caller.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace merlin {

/// Scheduling callbacks for timeline observers (the batch engine bridges
/// these into its per-worker ObsSinks; the pool itself knows nothing about
/// the obs layer).  Both fire on the worker's own thread, and always BEFORE
/// the task they annotate runs — so every write a callback makes
/// happens-before that task's future completes, and an observer writing
/// per-worker state needs no synchronization beyond the future join.
/// Timestamps are steady-clock nanoseconds since the clock epoch.
struct PoolObserver {
  /// A worker waited for work: the gap from first going idle to picking up
  /// the next task.  (Trailing idleness before shutdown is not reported.)
  std::function<void(std::size_t worker, std::uint64_t idle_begin_ns,
                     std::uint64_t idle_end_ns)>
      on_idle;
  /// The task the worker is about to run was stolen from another queue.
  std::function<void(std::size_t worker, std::uint64_t now_ns)> on_steal;
};

class ThreadPool {
 public:
  /// Sentinel returned by worker_index() on threads outside this pool.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `n_threads` = 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);

  /// Drains every already-submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `task`.  The returned future completes when the task has run;
  /// `get()` rethrows any exception the task threw.  Throws
  /// std::runtime_error if the pool is already shutting down.
  std::future<void> submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Index of the calling thread within this pool, or `npos` when called
  /// from a thread this pool does not own.  Stable for the pool's lifetime —
  /// batch runners key per-worker scratch state (e.g. CacheSession) off it.
  [[nodiscard]] std::size_t worker_index() const;

  /// Number of tasks a worker executed out of another worker's queue.
  /// Purely informational (load-balance observability).
  [[nodiscard]] std::size_t steal_count() const;

  /// Tasks executed so far, per worker.  Like steal_count this is a
  /// scheduling fact: the per-worker split varies run to run (only the sum
  /// is stable), so it belongs in the non-deterministic `runtime` section
  /// of any stats export, never in differential comparisons.
  [[nodiscard]] std::vector<std::uint64_t> executed_counts() const;

  /// Installs the scheduling observer.  Must be called before any task is
  /// submitted (workers read the callbacks outside the lock once they have
  /// work; before the first submit every worker is parked on the condition
  /// variable, so the handoff is race-free).
  void set_observer(PoolObserver obs);

 private:
  void worker_loop(std::size_t wi);

  /// Pops the next task for worker `wi` (own queue first, else steal the
  /// oldest task of the longest other queue).  Caller holds `mu_`.
  /// `stolen` reports whether the task came off a foreign queue.
  bool pop_task(std::size_t wi, std::packaged_task<void()>& out, bool& stolen);

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  ///< task available / stopping
  std::condition_variable cv_idle_;  ///< in-flight count reached zero
  std::vector<std::deque<std::packaged_task<void()>>> queues_;
  std::vector<std::thread> workers_;
  std::size_t next_queue_ = 0;  ///< round-robin submit cursor
  std::size_t in_flight_ = 0;   ///< queued + currently running tasks
  std::size_t steals_ = 0;
  std::vector<std::uint64_t> executed_;  ///< tasks run, per worker
  PoolObserver observer_;  ///< immutable once tasks are in flight
  bool stop_ = false;
};

/// Body of a parallel_for: `index` in [0, n), `lane` in [0, fork_lanes):
/// one participant owns a lane at a time, so per-lane scratch needs no lock.
using ForBody = std::function<void(std::size_t index, std::size_t lane)>;

/// Lanes a parallel_for over `n` indices uses on `pool`: min(n, workers),
/// at least 1; exactly 1 for a null pool.  Callers size per-lane scratch by
/// it before the call.
[[nodiscard]] std::size_t fork_lanes(const ThreadPool* pool, std::size_t n);

/// Caller-participating fork-join: runs `body(i, lane)` once for every i in
/// [0, n) and returns when all have finished.  Indices are claimed in
/// ascending order by the caller (lane 0) and by up to fork_lanes - 1
/// helper tasks queued on `pool` (lanes 1..); a null pool or a single lane
/// runs everything inline, in index order, on the caller.
///
///   * The caller never runs a foreign queued task while it waits: it only
///     works its own range, then blocks until the indices helpers claimed
///     have finished.  A helper that starts after the range is exhausted —
///     even after the call returned — claims nothing and touches only
///     shared state it co-owns, never `body`.
///   * After an index throws, no further index is claimed; the exception
///     of the lowest throwing index is rethrown once every claimed index
///     has finished.  Indices are claimed in order, so every lower index
///     ran: the rethrown exception is the one a serial loop would raise.
///   * Helper tasks are ordinary pool tasks: they show in executed_counts()
///     and steal_count() (scheduling facts), never in any work counter.
void parallel_for(ThreadPool* pool, std::size_t n, const ForBody& body);

}  // namespace merlin
