// A small work-stealing thread pool for embarrassingly parallel verification work.
//
// Design notes:
//  - Each ParallelFor call is a task group (a batch): its own per-participant deques, its
//    own completion latch, and its own count of unstarted tasks. Tasks are dealt
//    round-robin and an idle participant steals from the back of a victim's deque. For
//    the verifier's workload (a few hundred independent SMT checks of wildly varying
//    cost) stealing keeps all cores busy even when one worker draws several expensive
//    pairs in a row.
//  - Batches from different threads run at once on one pool. Workers pick among the
//    active batches round-robin and re-pick after every task, so a short batch (a warm
//    replay) never waits for a long one (a cold solve) to drain its queues.
//  - The caller participates in its own batch: ParallelFor runs that batch's tasks on
//    the calling thread too, so a pool of N threads uses N cores, not N+1, and
//    `threads == 1` degenerates to a plain serial loop with no thread ever spawned
//    (important for deterministic baselines). Because a caller can always finish its
//    batch alone, a task may itself call ParallelFor on the same pool.
//  - Tasks are indexed, not futures: ParallelFor(n, fn) invokes fn(i) for every
//    i in [0, n) exactly once and returns when all are done. Results are written by the
//    caller into pre-sized slots, which keeps output ordering independent of the
//    execution interleaving.
#ifndef SRC_SUPPORT_THREAD_POOL_H_
#define SRC_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace noctua {

class ThreadPool {
 public:
  // `threads` is the degree of parallelism including the calling thread; values < 1 are
  // clamped to 1. The pool spawns `threads - 1` workers lazily on the first ParallelFor.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  // Scheduling statistics. `steals` counts tasks a participant popped from another
  // participant's deque — a direct measure of how unevenly the dealt work was sized.
  // (The pool does not depend on noctua::obs; the verifier bridges these into its
  // counters.)
  struct Stats {
    uint64_t tasks = 0;
    uint64_t steals = 0;
  };
  // Cumulative over every batch this pool has finished.
  Stats stats() const {
    return Stats{tasks_.load(std::memory_order_relaxed),
                 steals_.load(std::memory_order_relaxed)};
  }

  // Runs fn(i) for every i in [0, n) across the pool (including the calling thread) and
  // blocks until all invocations return; returns this batch's own statistics, exact even
  // while other threads' batches share the pool. `order` optionally gives the dispatch
  // order (a permutation of [0, n)); earlier entries are started first — the hook for
  // cheapest-first scheduling. fn must be safe to call concurrently from different
  // threads for different i. Any number of threads may call ParallelFor at once.
  Stats ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                    const std::vector<size_t>* order = nullptr);

  // Degree of parallelism to use by default: the NOCTUA_THREADS environment variable if
  // set to a positive integer, otherwise std::thread::hardware_concurrency() (>= 1).
  static int DefaultThreads();

 private:
  struct Batch;

  void WorkerLoop(size_t worker_index);
  void StartWorkers();
  // Pops one task of `b` for participant `self` (stealing if its own deque is empty) and
  // retires the batch from the active list once its last task has started. Returns
  // false when the batch has nothing left to start.
  bool Take(Batch& b, size_t self, size_t* out);
  // Runs one task and opens the batch's completion latch after its last task.
  static void RunTask(Batch& b, size_t idx);

  const int threads_;
  std::vector<std::thread> workers_;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for a batch with work
  // Batches with unstarted tasks, in publication order; guarded by mu_.
  std::vector<std::shared_ptr<Batch>> active_;
  size_t next_pick_ = 0;                // round-robin cursor into active_; guarded by mu_
  std::atomic<size_t> num_active_{0};   // active_.size(), readable without mu_
  bool shutdown_ = false;

  std::atomic<uint64_t> tasks_{0};    // tasks executed, all batches
  std::atomic<uint64_t> steals_{0};   // cross-deque pops, all batches
};

}  // namespace noctua

#endif  // SRC_SUPPORT_THREAD_POOL_H_
