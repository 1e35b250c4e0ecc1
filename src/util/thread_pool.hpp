// Fixed-size thread pool and parallel_for: the parallel-execution
// substrate behind the sharded Monte-Carlo engine and the session's
// neighborhood sweeps.
//
// Design constraints (shared by every user):
//   * Determinism lives in the WORK DECOMPOSITION, not the schedule.  Tasks
//     are claimed dynamically (an atomic cursor), so callers must make each
//     task's output depend only on its task index — never on which worker
//     ran it or in what order.  Every current user follows this rule, which
//     is what makes results bit-identical for any thread count.
//   * Worker index stability: fn(task, worker) receives a worker index in
//     [0, num_workers()) that is stable for the lifetime of the pool — the
//     caller participates as worker 0, pool threads are 1..n-1.  Per-worker
//     scratch (simulators) can be keyed by it without locks
//     because one worker never runs two tasks concurrently.
//   * Exceptions propagate: the first exception thrown by any task is
//     rethrown on the calling thread after every worker has stopped; the
//     remaining unclaimed tasks are abandoned.  The pool stays usable.
//
// A pool with num_workers() == 1 never spawns a thread: parallel_for runs
// the loop inline on the caller, making `--threads 1` exactly the
// historical serial path.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace protest {

class Executor;

/// Thread-count knob plumbed from SessionOptions / CLI --threads into
/// every parallel entry point.
struct ParallelConfig {
  /// 0 = one worker per hardware thread (std::thread::hardware_concurrency),
  /// 1 = serial (no pool threads), N = exactly N workers.  Results are
  /// bit-identical for every value; only wall-clock changes.
  unsigned num_threads = 0;

  /// Injectable shared executor (util/executor.hpp).  When set, components
  /// reached by this config run their parallel jobs on it instead of
  /// spawning a private pool — the seam the service layer uses to keep N
  /// resident sessions on ONE set of worker threads.  Its worker count
  /// overrides num_threads.  Results are identical either way.
  std::shared_ptr<Executor> executor;

  /// The effective worker count (the executor's when one is injected,
  /// otherwise resolves num_threads; never returns 0).
  unsigned resolved() const;
};

class ThreadPool {
 public:
  /// Spawns `num_workers - 1` threads (the caller is worker 0).
  /// num_workers == 0 is treated as 1.
  explicit ThreadPool(unsigned num_workers);
  explicit ThreadPool(ParallelConfig config) : ThreadPool(config.resolved()) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_workers() const;

  /// Runs fn(task_index, worker_index) for every task_index in
  /// [0, num_tasks).  Tasks are claimed dynamically across workers; the
  /// calling thread participates as worker 0 and the call returns when
  /// every claimed task has finished.  The first exception any task throws
  /// is rethrown here (remaining unclaimed tasks are skipped).
  ///
  /// Not reentrant: parallel_for must not be called from inside a task of
  /// the same pool, and a pool runs one parallel_for at a time.
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t, unsigned)>& fn);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace protest
