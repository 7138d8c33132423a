#include "src/support/thread_pool.h"

#include <algorithm>
#include <deque>

#include "src/support/env.h"

namespace noctua {

// One ParallelFor invocation: per-participant deques plus completion accounting. Owned
// jointly by its caller and whichever workers are working on it, so a worker that is
// still holding a finished batch never touches freed memory (it only finds the deques
// empty). Participant 0 is the calling thread; worker w uses slot w + 1.
struct ThreadPool::Batch {
  struct Queue {
    std::mutex mu;
    std::deque<size_t> q;
  };

  const std::function<void(size_t)>* fn = nullptr;
  std::vector<std::unique_ptr<Queue>> queues;
  std::atomic<size_t> unstarted{0};  // tasks not yet popped
  std::atomic<size_t> remaining{0};  // tasks not yet finished
  std::atomic<uint64_t> steals{0};   // cross-deque pops within this batch
  // The completion latch: the caller waits here until `remaining` reaches 0.
  std::mutex done_mu;
  std::condition_variable done_cv;

  // Pop from the front of one's own deque; steal from the back of a victim's otherwise.
  // Owners and thieves take opposite ends, so a worker keeps the cheap (earlier-
  // scheduled) tasks it was dealt and thieves take the most recently dealt ones.
  bool Pop(size_t self, size_t* out) {
    {
      Queue& mine = *queues[self];
      std::lock_guard<std::mutex> lk(mine.mu);
      if (!mine.q.empty()) {
        *out = mine.q.front();
        mine.q.pop_front();
        return true;
      }
    }
    for (size_t k = 1; k < queues.size(); ++k) {
      Queue& victim = *queues[(self + k) % queues.size()];
      std::lock_guard<std::mutex> lk(victim.mu);
      if (!victim.q.empty()) {
        *out = victim.q.back();
        victim.q.pop_back();
        steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }
};

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

int ThreadPool::DefaultThreads() {
  // More worker threads than env::kMaxThreads is never useful for pair verification and
  // usually a typo (an extra digit); env::PositiveIntOr clamps rather than spawn
  // thousands of threads, and rejects non-integers with a one-shot warning.
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(env::PositiveIntOr(
      "NOCTUA_THREADS", hw == 0 ? 1 : static_cast<long>(hw), env::kMaxThreads));
}

// Caller holds mu_.
void ThreadPool::StartWorkers() {
  if (started_ || threads_ <= 1) {
    return;
  }
  started_ = true;
  workers_.reserve(threads_ - 1);
  for (int w = 0; w < threads_ - 1; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(static_cast<size_t>(w)); });
  }
}

bool ThreadPool::Take(Batch& b, size_t self, size_t* out) {
  if (!b.Pop(self, out)) {
    return false;
  }
  if (b.unstarted.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Every task has started: stop offering the batch to workers.
    std::lock_guard<std::mutex> lk(mu_);
    auto it = std::find_if(active_.begin(), active_.end(),
                           [&](const std::shared_ptr<Batch>& a) { return a.get() == &b; });
    if (it != active_.end()) {
      active_.erase(it);
    }
    num_active_.store(active_.size(), std::memory_order_relaxed);
  }
  return true;
}

void ThreadPool::RunTask(Batch& b, size_t idx) {
  (*b.fn)(idx);
  if (b.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(b.done_mu);
    b.done_cv.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  const size_t self = worker_index + 1;
  std::shared_ptr<Batch> b;
  for (;;) {
    // Re-pick after every task whenever batches compete for workers; with one active
    // batch the pick would return the same batch, so skip the lock.
    if (b == nullptr || num_active_.load(std::memory_order_relaxed) > 1) {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return shutdown_ || !active_.empty(); });
      if (shutdown_) {
        return;
      }
      b = active_[next_pick_++ % active_.size()];
    }
    size_t idx;
    if (!Take(*b, self, &idx)) {
      b.reset();
      continue;
    }
    RunTask(*b, idx);
  }
}

ThreadPool::Stats ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                                          const std::vector<size_t>* order) {
  if (n == 0) {
    return Stats{};
  }
  if (threads_ <= 1 || n == 1) {
    // Serial fast path: no threads, no queues — the deterministic baseline.
    if (order != nullptr) {
      for (size_t k = 0; k < n; ++k) {
        fn((*order)[k]);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        fn(i);
      }
    }
    tasks_.fetch_add(n, std::memory_order_relaxed);
    return Stats{n, 0};
  }

  auto b = std::make_shared<Batch>();
  b->fn = &fn;
  b->unstarted.store(n, std::memory_order_relaxed);
  b->remaining.store(n, std::memory_order_relaxed);
  size_t participants = static_cast<size_t>(threads_);
  b->queues.reserve(participants);
  for (size_t p = 0; p < participants; ++p) {
    b->queues.push_back(std::make_unique<Batch::Queue>());
  }
  // Deal tasks round-robin in dispatch order: task k goes to participant k mod P, so the
  // first P tasks of the (cheapest-first) order start simultaneously.
  for (size_t k = 0; k < n; ++k) {
    size_t idx = order != nullptr ? (*order)[k] : k;
    b->queues[k % participants]->q.push_back(idx);
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    StartWorkers();
    active_.push_back(b);
    num_active_.store(active_.size(), std::memory_order_relaxed);
  }
  work_cv_.notify_all();

  // The caller is participant 0 of its own batch.
  size_t idx;
  while (Take(*b, 0, &idx)) {
    RunTask(*b, idx);
  }
  {
    std::unique_lock<std::mutex> lk(b->done_mu);
    b->done_cv.wait(lk, [&] { return b->remaining.load(std::memory_order_acquire) == 0; });
  }
  const Stats batch{n, b->steals.load(std::memory_order_relaxed)};
  tasks_.fetch_add(batch.tasks, std::memory_order_relaxed);
  steals_.fetch_add(batch.steals, std::memory_order_relaxed);
  return batch;
}

}  // namespace noctua
