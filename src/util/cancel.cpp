#include "util/cancel.hpp"

#include <utility>

namespace protest {
namespace {

thread_local CancelToken tl_current_token;

}  // namespace

CancelToken CancelToken::source() {
  CancelToken t;
  t.state_ = std::make_shared<State>();
  return t;
}

CancelToken CancelToken::with_deadline(
    const CancelToken& parent, std::chrono::steady_clock::time_point deadline) {
  auto state = std::make_shared<State>();
  state->parent = parent.state_;
  state->has_deadline = true;
  state->deadline = deadline;
  CancelToken t;
  t.state_ = std::move(state);
  return t;
}

CancelReason CancelToken::reason() const {
  // Explicit cancel anywhere in the chain dominates deadline expiry, so
  // scan all flags before consulting the clock.
  bool any_deadline = false;
  std::chrono::steady_clock::time_point earliest{};
  for (const State* s = state_.get(); s; s = s->parent.get()) {
    if (s->flag.load(std::memory_order_acquire)) return CancelReason::Cancelled;
    if (s->has_deadline && (!any_deadline || s->deadline < earliest)) {
      any_deadline = true;
      earliest = s->deadline;
    }
  }
  if (any_deadline && std::chrono::steady_clock::now() >= earliest) {
    return CancelReason::DeadlineExceeded;
  }
  return CancelReason::None;
}

CancelScope::CancelScope(CancelToken token)
    : prev_(std::exchange(tl_current_token, std::move(token))) {}

CancelScope::~CancelScope() { tl_current_token = std::move(prev_); }

const CancelToken& current_cancel_token() { return tl_current_token; }

void check_cancelled() { tl_current_token.check(); }

std::chrono::steady_clock::time_point deadline_after(
    std::chrono::milliseconds budget) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  if (budget >= std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::time_point::max() - now))
    return Clock::time_point::max();
  return now + budget;
}

}  // namespace protest
