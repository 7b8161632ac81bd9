#include "runtime/pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

namespace merlin {

namespace {

// Which pool (if any) owns the current thread, and the thread's index in it.
// Written once per worker thread at startup, before any task can observe it.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_index = ThreadPool::npos;

// Observer timestamps: same steady clock (and epoch) as the obs layer's
// span records, so pool events land on the same timeline.
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0)
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  queues_.resize(n_threads);
  executed_.assign(n_threads, 0);
  workers_.reserve(n_threads);
  try {
    for (std::size_t wi = 0; wi < n_threads; ++wi)
      workers_.emplace_back([this, wi] { worker_loop(wi); });
  } catch (...) {
    // std::thread creation can throw (resource_unavailable_try_again).  The
    // workers already started must be joined before the exception unwinds
    // this half-built pool, or their loops would touch freed members.
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;  // drain mode: workers exit once every queue is empty
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) throw std::runtime_error("ThreadPool::submit: pool is shutting down");
    // A worker submitting from inside a task keeps its child local; external
    // submitters deal round-robin so the initial shard is even.
    const std::size_t wi = tl_pool == this ? tl_index : next_queue_++ % queues_.size();
    queues_[wi].push_back(std::move(pt));
    ++in_flight_;
    // Notify while still holding the lock.  With the unlocked notify this
    // used to do, a worker could pick up the task and finish it, and the
    // owner could destroy the pool, all between our unlock and the notify —
    // which then touched a destroyed condition_variable.  Holding mu_ means
    // the destructor (which must take mu_ to set stop_) cannot have
    // completed while we are signalling.
    cv_work_.notify_one();
  }
  return fut;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::worker_index() const {
  return tl_pool == this ? tl_index : npos;
}

std::size_t ThreadPool::steal_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return steals_;
}

std::vector<std::uint64_t> ThreadPool::executed_counts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return executed_;
}

void ThreadPool::set_observer(PoolObserver obs) {
  std::lock_guard<std::mutex> lk(mu_);
  if (in_flight_ != 0)
    throw std::logic_error(
        "ThreadPool::set_observer: tasks already in flight");
  observer_ = std::move(obs);
}

bool ThreadPool::pop_task(std::size_t wi, std::packaged_task<void()>& out,
                          bool& stolen) {
  stolen = false;
  if (!queues_[wi].empty()) {  // own work: newest first (LIFO)
    out = std::move(queues_[wi].back());
    queues_[wi].pop_back();
    ++executed_[wi];
    return true;
  }
  // Steal the oldest task of the longest other queue.
  std::size_t victim = npos, best = 0;
  for (std::size_t qi = 0; qi < queues_.size(); ++qi)
    if (qi != wi && queues_[qi].size() > best) {
      best = queues_[qi].size();
      victim = qi;
    }
  if (victim == npos) return false;
  out = std::move(queues_[victim].front());
  queues_[victim].pop_front();
  ++steals_;
  ++executed_[wi];
  stolen = true;
  return true;
}

std::size_t fork_lanes(const ThreadPool* pool, std::size_t n) {
  return pool == nullptr ? 1 : std::max<std::size_t>(1, std::min(n, pool->size()));
}

namespace {

// One parallel_for call's claim/finish ledger.  Co-owned by the caller and
// every helper task, so a helper that is dequeued after the call returned
// still finds it alive; `body` is only dereferenced under a successful
// claim, which cannot happen once the caller has stopped waiting.
struct ForState {
  std::mutex mu;
  std::condition_variable cv_done;
  const ForBody* body = nullptr;
  std::size_t n = 0;
  std::size_t next = 0;     ///< next unclaimed index
  std::size_t running = 0;  ///< claimed, not yet finished
  std::size_t error_index = static_cast<std::size_t>(-1);
  std::exception_ptr error;  ///< of the lowest throwing index

  // Claims the next index, or returns false once the range is exhausted or
  // an index has failed (both are permanent, so claiming closes for good).
  bool claim(std::size_t& i) {
    std::lock_guard<std::mutex> lk(mu);
    if (next >= n || error) return false;
    i = next++;
    ++running;
    return true;
  }

  void work(std::size_t lane) {
    std::size_t i = 0;
    while (claim(i)) {
      std::exception_ptr ep;
      try {
        (*body)(i, lane);
      } catch (...) {
        ep = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mu);
      if (ep && i < error_index) {
        error_index = i;
        error = ep;
      }
      if (--running == 0) cv_done.notify_all();
    }
  }
};

}  // namespace

void parallel_for(ThreadPool* pool, std::size_t n, const ForBody& body) {
  const std::size_t lanes = fork_lanes(pool, n);
  if (lanes == 1) {  // the serial loop the contract is written against
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  const auto state = std::make_shared<ForState>();
  state->body = &body;
  state->n = n;
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    try {
      (void)pool->submit([state, lane] { state->work(lane); });
    } catch (const std::runtime_error&) {
      break;  // pool shutting down: the caller covers the range alone
    }
  }
  state->work(0);
  std::unique_lock<std::mutex> lk(state->mu);
  state->cv_done.wait(lk, [&] { return state->running == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::worker_loop(std::size_t wi) {
  tl_pool = this;
  tl_index = wi;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    std::packaged_task<void()> task;
    bool stolen = false;
    std::uint64_t idle_begin = 0;
    while (!pop_task(wi, task, stolen)) {
      if (stop_) return;  // drained and shutting down
      if (observer_.on_idle && idle_begin == 0) idle_begin = mono_ns();
      cv_work_.wait(lk);
    }
    lk.unlock();
    // Observer callbacks fire before the task: every write they make
    // happens-before the task's future completes (see PoolObserver).
    if (idle_begin != 0 && observer_.on_idle)
      observer_.on_idle(wi, idle_begin, mono_ns());
    if (stolen && observer_.on_steal) observer_.on_steal(wi, mono_ns());
    task();  // packaged_task captures exceptions into the future
    lk.lock();
    if (--in_flight_ == 0) cv_idle_.notify_all();
  }
}

}  // namespace merlin
