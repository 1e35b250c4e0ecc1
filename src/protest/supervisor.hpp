// Supervised multi-process serving: crash-isolated workers behind a
// correlating router.
//
// `protest serve --workers N` splits the daemon into a SUPERVISOR (this
// class) and N WORKER processes, each a full single-process service
// (`protest __serve-worker`) speaking the ordinary NDJSON protocol over
// a pipe pair.  The wire format is already request/response with client
// ids, so the router is a correlating multiplexer: it rewrites client
// ids to internal ids on the way in, demultiplexes worker stdout by id
// on the way out, and rewrites back.  Netlists are PLACED: a registry
// name hashes to one worker (worker_for_netlist, a pure rendezvous
// hash), and every verb that names a netlist routes to its home worker —
// sessions never split across processes, so cache locality and the
// byte-identity guarantees of the single-process service carry over
// verb by verb.
//
// Failure is a first-class input:
//
//  - CRASH: a worker that dies (EOF on its stdout) fails every request
//    in flight on it.  Verbs the verb table marks `retried` (the
//    idempotent reads, service.hpp) are RETRIED once on the restarted
//    worker — restart replays the placement table's load_netlist
//    requests first, so the retry lands on a worker that knows the
//    netlist.  Every other verb answers a structured `worker_lost` error
//    immediately: never a hang, never a dropped connection.
//  - RESTART: crashed workers respawn with capped exponential backoff
//    (util/backoff.hpp); after `max_restarts` consecutive failures the
//    slot is abandoned and its requests answer `worker_lost`.
//  - WEDGE: the supervisor heartbeats each worker (an inline `stats`
//    ping — workers serve pipelined, so heartbeats answer even while a
//    long Monte-Carlo runs).  A worker silent past the heartbeat timeout
//    is killed and takes the crash path.  This is what catches a stalled
//    reader (fault injection: stall@verb) that an EOF check never would.
//  - GARBAGE: a worker line without the canonical response head
//    (`{"id":N,"verb":"V","ok":B,`) is protocol corruption; the worker is killed and takes the crash path
//    (pending requests retry or answer worker_lost) — corrupted output
//    is never forwarded to a client.
//  - DEADLINE: `deadline_ms` rides through to the worker, whose
//    CancelToken checkpoints answer `deadline_exceeded` (service.hpp).
//    The supervisor adds a BACKSTOP: deadline + grace after forwarding,
//    the pending is abandoned and answered `deadline_exceeded` locally —
//    so even a wedged worker cannot hang a deadlined request; its late
//    response is dropped by the demultiplexer.
//
// Job tickets get GLOBAL ids mapped to (worker, local id, generation).
// A restart bumps the generation, so tickets on the dead process answer
// `state:"failed"` with a worker_lost error from then on — they survive
// the restart as observable failures, never as orphans.  `wait` is
// implemented as a supervisor-side poll loop so a long wait never blocks
// the worker's inline verb lane (which heartbeats share).
//
// `shutdown` drains: outstanding requests get their responses (counted
// as drained_requests), every worker receives its own shutdown and is
// reaped, stragglers are killed.  Supervisor state — worker pids,
// generations, restarts, retry/timeout/wedge/garbage counters — is
// surfaced through the unnamed `stats` verb under "supervisor".
//
// The Supervisor is a ServiceEndpoint: both serve front ends (stdio and
// TCP, serial and pipelined) serve it unchanged.  handle_line is
// synchronous per call — concurrency comes from the front end's
// pipelined dispatch slots and per-connection threads, exactly as with
// the in-process service.
//
// POSIX-only (pipes + posix_spawn); supervisor_supported() reports
// availability, and construction throws ServiceError("unsupported")
// elsewhere.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "protest/service.hpp"
#include "util/backoff.hpp"

namespace protest {

/// Pure placement function: which of `workers` processes owns `name`.
/// Rendezvous (highest-random-weight) hashing over FNV-1a fingerprints:
/// deterministic across runs and platforms (tests pin specific names),
/// and adding a worker moves only the names that rehome to it.
unsigned worker_for_netlist(std::string_view name, unsigned workers);

/// The per-(name, worker) fingerprint behind worker_for_netlist —
/// exposed so tests can check the argmax property directly.
std::uint64_t placement_fingerprint(std::string_view name, unsigned worker);

struct SupervisorOptions {
  unsigned workers = 2;            ///< worker process count (min 1)
  unsigned max_restarts = 5;       ///< consecutive failures before a slot is abandoned
  BackoffPolicy backoff;           ///< restart delay schedule
  std::chrono::milliseconds heartbeat_interval{500};
  /// Silence longer than this marks a worker wedged (clamped to at least
  /// twice the interval so one late beat never kills a healthy worker).
  std::chrono::milliseconds heartbeat_timeout{2500};
  /// Backstop slack past a request's own deadline_ms before the
  /// supervisor abandons the pending and answers deadline_exceeded.
  std::chrono::milliseconds deadline_grace{500};
  /// Pipelined dispatch slots inside each worker (>=1; keeps the inline
  /// verb lane — and with it heartbeats — responsive during long work).
  std::size_t worker_inflight = 4;
  /// Worker executable.  "" resolves PROTEST_BIN, then /proc/self/exe.
  std::string worker_binary;
  /// Extra argv appended to every worker's `__serve-worker --inflight N`
  /// command line (e.g. --cap / --threads pass-through).
  std::vector<std::string> worker_args;
  /// Fault-injection spec forwarded (via PROTEST_FAULT_INJECT) to
  /// GENERATION-0 workers only — restarted workers run clean, so a
  /// scripted fault conversation converges and its counters are exact.
  std::string fault_spec;
};

/// Live counter snapshot (also serialized under stats.supervisor).
struct SupervisorCounters {
  std::uint64_t restarts = 0;      ///< worker respawns performed
  std::uint64_t retries = 0;       ///< idempotent requests re-forwarded
  std::uint64_t timeouts = 0;      ///< answers whose own error is deadline_exceeded (worker or backstop)
  std::uint64_t worker_lost = 0;   ///< requests answered worker_lost
  std::uint64_t wedges = 0;        ///< workers killed for missed heartbeats
  std::uint64_t garbage = 0;       ///< corrupt worker lines observed
  std::uint64_t drained = 0;       ///< in-flight requests completed during shutdown drain
};

class Supervisor : public ServiceEndpoint {
 public:
  /// Spawns the worker fleet (throws ServiceError on spawn failure or
  /// unsupported platforms).  `log` receives one line per lifecycle
  /// event (spawn, crash, wedge, restart, abandon); it must outlive the
  /// supervisor.
  Supervisor(SupervisorOptions options, std::ostream& log);
  ~Supervisor() override;

  bool shutdown_requested() const override;

  SupervisorCounters counters() const;
  const SupervisorOptions& options() const;

 protected:
  std::string respond(const ServiceRequest& request) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// True when this build can run the supervisor (POSIX pipes + spawn).
bool supervisor_supported();

}  // namespace protest
