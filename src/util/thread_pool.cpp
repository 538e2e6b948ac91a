#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/error.hpp"

namespace latol::util {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  LATOL_REQUIRE(task != nullptr, "cannot submit an empty task");
  {
    const std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ with a drained queue
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

// Per-participant claim cursor, padded so concurrent fetch_adds on
// neighbouring chunks don't false-share a cache line.
struct alignas(64) Chunk {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
};

// Shared between the submitting thread and every worker task; owned by
// shared_ptr because queued tasks may start after parallel_for returned
// (the call returns as soon as all *indices* are done; a late task finds
// every chunk drained and exits immediately).
struct WorkStealState {
  WorkStealState(std::size_t total, std::size_t participants,
                 std::function<void(std::size_t)> fn)
      : n(total), body(std::move(fn)), chunks(participants) {
    // Near-equal contiguous chunks; the first n % participants chunks
    // take one extra index.
    const std::size_t base = total / participants;
    const std::size_t extra = total % participants;
    std::size_t begin = 0;
    for (std::size_t p = 0; p < participants; ++p) {
      const std::size_t len = base + (p < extra ? 1 : 0);
      chunks[p].next.store(begin, std::memory_order_relaxed);
      chunks[p].end = begin + len;
      begin += len;
    }
  }

  // Drain own chunk `self`, then steal from the others round-robin. Each
  // index is claimed exactly once (the cursors are atomic and the chunk
  // ranges partition [0, n)).
  void participate(std::size_t self) {
    const std::size_t P = chunks.size();
    std::size_t finished = 0;
    for (std::size_t offset = 0; offset < P; ++offset) {
      Chunk& c = chunks[(self + offset) % P];
      for (;;) {
        const std::size_t i = c.next.fetch_add(1);
        if (i >= c.end) break;
        body(i);
        ++finished;
      }
    }
    // The seq_cst fetch_add chain plus the final acquire load in the
    // waiter's predicate order every body() write before the waiter's
    // return.
    if (finished != 0 && done.fetch_add(finished) + finished == n) {
      const std::lock_guard lock(mutex);
      cv.notify_all();
    }
  }

  const std::size_t n;
  const std::function<void(std::size_t)> body;
  std::vector<Chunk> chunks;
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // The caller is participant 0; pool workers take the rest.
  const std::size_t participants = std::min(n, pool.worker_count() + 1);
  auto state = std::make_shared<WorkStealState>(n, participants, body);
  for (std::size_t p = 1; p < participants; ++p) {
    pool.submit([state, p] { state->participate(p); });
  }
  state->participate(0);
  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] { return state->done.load() == state->n; });
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t workers) {
  if (workers == 0) {
    parallel_for(ThreadPool::shared(), n, body);
    return;
  }
  ThreadPool pool(workers);
  parallel_for(pool, n, body);
}

}  // namespace latol::util
