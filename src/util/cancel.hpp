// Cooperative cancellation: the substrate behind the async job API and
// the service layer's per-request deadlines.
//
// A CancelToken is a cheap, copyable handle on a shared cancellation flag.
// Long-running work (the Monte-Carlo shard loop, the hill-climb sweep,
// the session's neighborhood sweep) polls the flag at natural CHECKPOINTS
// — shard boundaries, climb coordinates, sweep tasks — and aborts by
// throwing OperationCancelled, which unwinds through the ordinary
// exception-propagation paths (ThreadPool rethrows the first task
// exception on the caller).  Cancellation is therefore cooperative and
// prompt to within one checkpoint, never preemptive: no locks are broken,
// no partial state is published, and caches are only updated by work that
// ran to completion.
//
// Tokens compose two ways beyond the plain source() flag:
//
//  - DEADLINES: deadline_source()/with_deadline() produce tokens that
//    trip automatically once a steady-clock deadline passes — the
//    mechanism behind the service's per-request `deadline_ms`.  A token
//    remembers WHY it tripped (CancelReason), so the service can answer
//    `deadline_exceeded` for an expired deadline while an explicit
//    cancel() still unwinds to the job layer as a cancelled job.
//    An explicit request_cancel() anywhere in the chain wins over an
//    expired deadline when both hold.
//
//  - PARENT LINKS: with_deadline(parent, ...) keeps observing `parent`,
//    so a deadline scope installed INSIDE a job's CancelScope still sees
//    the job's cancel() — nesting scopes never disconnects the outer
//    cancellation path.
//
// Plumbing is AMBIENT rather than parameter-threaded: CancelScope installs
// a token as the calling thread's current token (thread-local), and
// check_cancelled() polls it.  This keeps deep call chains — session ->
// engine -> executor -> shard loop — free of signature churn.  The one
// seam that must forward the token across threads is Executor::
// parallel_for, which captures the submitting thread's current token and
// re-installs it around every pool task, so a checkpoint inside a worker
// observes the same cancellation the submitting job does.
//
// A default-constructed token is INERT: it can never be cancelled,
// request_cancel() is a no-op, and checks against it are two predictable
// branches.  All pre-existing synchronous entry points run under the
// inert token and are unaffected.
//
// Thread safety: request_cancel() / cancel_requested() / reason() are
// atomic (plus a monotonic clock read for deadline tokens) and may race
// freely across threads; CancelScope and current_cancel_token() are
// per-thread by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

namespace protest {

/// Why a token tripped.  None = not tripped.  Cancelled (an explicit
/// request_cancel anywhere in the chain) dominates DeadlineExceeded when
/// both hold, so a cancelled job never masquerades as a timeout.
enum class CancelReason { None, Cancelled, DeadlineExceeded };

/// Thrown by cancellation checkpoints.  Deliberately NOT derived from
/// std::runtime_error: the service layer converts runtime errors into
/// structured error responses, while cancellation must propagate past
/// those handlers to the job layer (which records the job as cancelled,
/// never as failed).  Deadline expiry is the one reason the service DOES
/// answer structurally (`deadline_exceeded`) — it branches on reason().
class OperationCancelled : public std::exception {
 public:
  OperationCancelled() = default;
  explicit OperationCancelled(CancelReason reason) : reason_(reason) {}
  const char* what() const noexcept override {
    return reason_ == CancelReason::DeadlineExceeded ? "deadline exceeded"
                                                     : "operation cancelled";
  }
  CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_ = CancelReason::Cancelled;
};

class CancelToken {
 public:
  /// Inert token: never cancelled, request_cancel() is a no-op.
  CancelToken() = default;

  /// A fresh cancellable token.
  static CancelToken source();

  /// A token that trips with DeadlineExceeded once `deadline` passes AND
  /// keeps observing `parent` (typically current_cancel_token()), so a
  /// deadline scope nested inside a job still sees the job's cancel().
  static CancelToken with_deadline(
      const CancelToken& parent, std::chrono::steady_clock::time_point deadline);

  /// with_deadline() against an inert parent.
  static CancelToken deadline_source(
      std::chrono::steady_clock::time_point deadline) {
    return with_deadline(CancelToken(), deadline);
  }

  /// True for source()/with_deadline() tokens, false for inert ones.
  bool cancellable() const { return state_ != nullptr; }

  /// Flips this token's own flag; every copy of this token (and every
  /// child linked to it) observes it.  Safe from any thread; no-op on an
  /// inert token.  Parents are NOT affected — cancelling a deadline child
  /// never cancels the job it nests inside.
  void request_cancel() const {
    if (state_) state_->flag.store(true, std::memory_order_release);
  }

  /// Why this token has tripped (walking the parent chain), or None.
  CancelReason reason() const;

  bool cancel_requested() const { return reason() != CancelReason::None; }

  /// Throws OperationCancelled (carrying the reason) when tripped.
  void check() const {
    const CancelReason r = reason();
    if (r != CancelReason::None) throw OperationCancelled(r);
  }

 private:
  struct State {
    mutable std::atomic<bool> flag{false};  ///< mutable: set through const chain
    std::shared_ptr<const State> parent;  ///< observed too (null = none)
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  std::shared_ptr<const State> state_;  ///< null = inert
};

/// Installs `token` as the calling thread's current token for the scope's
/// lifetime (restoring the previous one on exit).  Scopes nest; the
/// innermost wins — link deadline tokens to the previous current token
/// (CancelToken::with_deadline) to keep observing the outer cancellation.
class CancelScope {
 public:
  explicit CancelScope(CancelToken token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken prev_;
};

/// The calling thread's current token (inert outside any CancelScope).
const CancelToken& current_cancel_token();

/// The checkpoint primitive: throws OperationCancelled when the current
/// token has been cancelled.  Cost when no scope is installed: one
/// null-pointer test.
void check_cancelled();

/// The steady-clock time `budget` from now, saturating at time_point::max()
/// where now + budget would overflow the clock's nanosecond count (the
/// protocol's deadline_ms goes up to 2^53 ms, about 2,000 times that
/// range), so a huge budget never wraps into an expired deadline.
std::chrono::steady_clock::time_point deadline_after(
    std::chrono::milliseconds budget);

}  // namespace protest
