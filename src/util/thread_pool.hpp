// Fixed-size worker pool plus a deterministic work-stealing parallel_for.
//
// The reproduction figures are dense 2-D parameter sweeps; each grid point
// is an independent AMVA solve, so the sweep layer fans work out over a
// pool. Results are written to pre-sized slots indexed by the loop
// variable, so output is bit-identical regardless of worker count or
// stealing order (DESIGN.md §10).
//
// parallel_for splits [0, n) into one contiguous chunk per participant;
// a participant that drains its own chunk steals from the others in
// round-robin order. The calling thread always participates, which makes
// nested parallel_for on the shared pool deadlock-free: even when every
// pool worker is busy with outer iterations, the nested caller completes
// its loop single-handedly.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace latol::util {

/// A plain fixed-size thread pool with a FIFO task queue. Tasks must not
/// throw (exceptions escaping a task terminate, per std::thread rules);
/// sweep users capture errors into their result slots instead.
class ThreadPool {
 public:
  /// Spawn `workers` threads (0 selects hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool (hardware_concurrency workers), created on
  /// first use. All sweep layers (core::sweep, exp::run_scenario, CLI)
  /// share it by default so a nested sweep reuses the same threads
  /// instead of oversubscribing the machine.
  static ThreadPool& shared();

  /// Enqueue one task. Destruction runs every queued task before the
  /// workers exit.
  void submit(std::function<void()> task);

  /// Number of worker threads (excludes callers that join a
  /// parallel_for).
  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

/// Run `body(i)` for i in [0, n), distributing iterations over `pool`
/// plus the calling thread (work-stealing; see the file comment). Blocks
/// until all iterations complete. `body` must be safe to invoke
/// concurrently for distinct indices and must not throw.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Convenience overload: workers == 0 runs on ThreadPool::shared(),
/// workers > 0 on a transient pool of that many threads (plus the
/// caller).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t workers = 0);

}  // namespace latol::util
