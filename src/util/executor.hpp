// Shared executor: a ThreadPool behind a job lock, so INDEPENDENT
// components can run their parallel loops on ONE set of worker threads.
//
// Motivation: every parallel component used to own a private ThreadPool —
// fine for one resident session, but a service keeping N sessions hot
// would spawn N pools and oversubscribe the machine N-fold.  An Executor
// is the sharing seam: inject one instance through
// ParallelConfig::executor and every component it reaches (the sharded
// Monte-Carlo engine, the session sweeps) runs its jobs on the same
// workers.  Jobs from concurrent callers SERIALIZE —
// each job still spans the full pool, so the machine stays fully used
// and never oversubscribed; what changes is that two sessions' parallel
// phases queue behind each other instead of fighting for cores.
//
// Determinism is untouched: the executor only forwards to
// ThreadPool::parallel_for, and every user keys its work by task index
// (see thread_pool.hpp), so results are bit-identical whether a component
// runs on a private pool or a shared executor of any size.
//
// Reentrancy: a task running on this executor that submits to the SAME
// executor would deadlock on the job lock if it ran on a pool thread.
// parallel_for detects this (thread-local current-executor marker) and
// runs nested jobs inline on the submitting worker instead — degraded to
// serial, but correct.  Current components never nest; the guard is
// insurance for future compositions.
//
// Cancellation: parallel_for captures the submitting thread's current
// CancelToken (util/cancel.hpp) and re-installs it around every task, so
// checkpoints inside shard loops and batch tasks observe the submitting
// job's cancellation even though they run on pool threads.  A cancelled
// task throws OperationCancelled, which the pool rethrows on the
// submitting thread after abandoning the unclaimed tasks.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

#include "util/thread_pool.hpp"

namespace protest {

class Executor {
 public:
  /// Worker count as in ThreadPool (0 is treated as 1; pass
  /// ParallelConfig{}.resolved() for "all hardware threads").  No threads
  /// are spawned here — the pool is created on the first job, so merely
  /// holding an executor (a registry with no parallel work yet, a CLI
  /// one-shot on a serial engine) costs nothing.
  explicit Executor(unsigned num_workers);
  explicit Executor(ParallelConfig config);

  /// Stable for the executor's lifetime; per-worker scratch in components
  /// sharing this executor can be keyed by the worker index they observe
  /// (only one job runs at a time, so slots never collide across jobs).
  unsigned num_workers() const { return num_workers_; }

  /// ThreadPool::parallel_for semantics (dynamic claiming, caller is
  /// worker 0, first exception rethrown), with concurrent CALLERS
  /// serialized on an internal lock: one job at a time, each spanning the
  /// whole pool.  Called from inside one of this executor's own tasks, the
  /// nested job runs inline on the submitting thread (see header).
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t, unsigned)>& fn);

 private:
  unsigned num_workers_;
  std::mutex job_mu_;  ///< serializes jobs from concurrent callers
  std::unique_ptr<ThreadPool> pool_;  ///< spawned lazily under job_mu_
};

/// The executor a component should run its jobs on: `config.executor`
/// when one was injected (the shared-pool path), otherwise a fresh
/// private executor sized by `config.num_threads` (the historical
/// pool-per-component behavior).
std::shared_ptr<Executor> make_executor(const ParallelConfig& config);

}  // namespace protest
