// Deterministic fault injection for the supervised serve stack.
//
// Supervisor behavior — crash detection, restart/backoff, wedge
// detection via missed heartbeats, garbage-tolerant demultiplexing — is
// tested by ACTUALLY crashing, wedging, and corrupting workers, not by
// mocking them.  A FaultInjector is armed from a spec string (the
// `--fault-inject` serve flag or the PROTEST_FAULT_INJECT environment
// variable, which is how spawned workers inherit it) and consulted by the
// worker's serve loop once per received request, before dispatch.
//
// Spec grammar (comma-separated rules):
//
//   [w<K>:]<action>@<verb>[:<nth>]
//
//   action  crash    call _Exit(9) — simulates a hard worker crash
//           stall    sleep the serve loop's reader thread for the
//                    configured stall duration — heartbeats stop
//                    answering, simulating a wedged worker
//           garbage  emit one non-JSON line on stdout instead of
//                    dispatching — simulates protocol corruption
//   verb    the request verb that triggers the rule: a name from the
//           verb table (protest/service.hpp) or "*" for any line, even
//           one that names no verb
//   nth     1-based count of MATCHING requests seen before firing
//           (default 1 = fire on the first match); each rule fires
//           exactly once
//   w<K>:   only arm this rule in the worker whose index is K
//           (workers learn their index via PROTEST_WORKER_INDEX)
//
// Example: "w0:crash@optimize,w1:stall@analyze:2" kills worker 0 on its
// first optimize request and wedges worker 1 on its second analyze.
// Everything is counter-based and single-threaded within
// a worker's reader loop, so a given conversation replays byte-for-byte
// deterministically — the CI fault-injection job depends on this.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace protest {

enum class FaultAction { Crash, Stall, Garbage };

struct FaultRule {
  FaultAction action = FaultAction::Crash;
  std::string verb;            ///< "*" matches any verb
  std::uint32_t nth = 1;       ///< fire on the nth matching request
  int worker_index = -1;       ///< -1 = any worker
  // Mutable firing state (injector instances are per-process, consulted
  // from one reader thread).
  std::uint32_t seen = 0;
  bool fired = false;
};

class FaultInjector {
 public:
  /// Inert injector: should_fire() never fires.
  FaultInjector() = default;

  /// Parses a spec string; throws std::invalid_argument with the
  /// offending rule quoted on malformed input, including a verb that is
  /// neither "*" nor in the verb table — in rules scoped to other workers
  /// too, which are parsed but not armed.
  static FaultInjector parse(const std::string& spec, int worker_index = -1);

  /// Builds an injector from PROTEST_FAULT_INJECT / PROTEST_WORKER_INDEX,
  /// or an inert one when the variable is unset or empty.  Malformed env
  /// specs are a hard error (throws) — silently ignoring a typo'd spec
  /// would make a fault-injection run vacuously green.
  static FaultInjector from_env();

  bool armed() const { return !rules_.empty(); }

  /// Consulted once per received request line.  Returns true (setting
  /// *action) when a rule fires for this verb; a rule fires at most once.
  bool should_fire(const std::string& verb, FaultAction* action);

  /// How long a Stall fault sleeps the reader (long enough to blow any
  /// reasonable heartbeat budget, short enough for tests).
  std::chrono::milliseconds stall_duration() const { return stall_duration_; }

  /// The line emitted for a Garbage fault — deliberately not JSON.
  static const char* garbage_line() { return "!!protest-fault-garbage!!"; }

 private:
  std::vector<FaultRule> rules_;
  std::chrono::milliseconds stall_duration_{10000};
};

}  // namespace protest
