// The service layer: PROTEST as a long-lived, queried back end.
//
// The paper frames PROTEST as an interactive tool a designer queries
// repeatedly while iterating on a circuit.  The session API (PR 2/3) made
// one netlist's analysis state resident and thread-safe; this layer makes
// it SERVED: a SessionRegistry maps caller-chosen netlist names to
// resident AnalysisSessions (LRU-evicted beyond a cap, revivable from
// their registration), a typed ServiceRequest/ServiceResponse protocol
// with a JSON wire encoding carries queries in and results out, and
// ProtestService dispatches requests — from in-process callers, from the
// `protest serve` NDJSON daemon, or from TCP clients — against the
// registry.  All resident sessions run their parallel work on ONE shared
// Executor, so a registry full of hot sessions uses exactly one worker
// pool instead of oversubscribing the machine N-fold.
//
// Wire format (newline-delimited JSON, one request and one response per
// line; `result` payloads for analyze/perturb are byte-identical to the
// corresponding AnalysisResult::to_json(0)):
//
//   > {"verb":"load_netlist","id":1,"netlist":"alu","circuit":"alu"}
//   < {"id":1,"verb":"load_netlist","ok":true,"result":{...}}
//   > {"verb":"analyze","id":2,"netlist":"alu","p":0.5}
//   < {"id":2,"verb":"analyze","ok":true,"result":{"engine":"protest",...}}
//   > {"verb":"bogus","id":3}
//   < {"id":3,"verb":"bogus","ok":false,"error":{"code":"unknown_verb",...}}
//
// Async jobs (PR 5): `submit` wraps any work verb into a ticketed job on
// the service's JobManager (protest/jobs.hpp) and returns immediately;
// `poll`/`wait` observe the ticket and, once done, embed the inner verb's
// ServiceResponse BYTE-IDENTICALLY under "response"; `cancel` stops the
// work cooperatively at its next checkpoint (Monte-Carlo shard, hill-
// climb coordinate); `jobs` lists every ticket.  The synchronous verbs
// are unchanged — they are the degenerate submit+wait.
//
//   > {"verb":"submit","id":4,"request":{"verb":"analyze","id":2,...}}
//   < {"id":4,"verb":"submit","ok":true,"result":{"job":1,"verb":"analyze","state":"queued"}}
//   > {"verb":"wait","id":5,"job":1}
//   < {"id":5,"verb":"wait","ok":true,"result":{"job":1,"verb":"analyze","state":"done","response":{"id":2,"verb":"analyze","ok":true,"result":{...}}}}
//
// Thread safety: ProtestService::handle / handle_line are safe for
// concurrent callers — the registry serializes its map behind a mutex,
// sessions are internally thread-safe (PR 3), and the shared executor
// serializes parallel jobs.  Malformed input yields a structured error
// response, never an exception escaping handle_line (the one deliberate
// exception: OperationCancelled propagates to the job layer so a
// cancelled job is recorded as cancelled, not as an error response).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "protest/fault_inject.hpp"
#include "protest/jobs.hpp"
#include "protest/session.hpp"
#include "util/executor.hpp"

namespace protest {

class JsonValue;

/// A protocol-level failure with a machine-readable code ("bad_request",
/// "unknown_verb", "unknown_netlist", "unknown_job", "internal").  Thrown
/// by the typed layer; the dispatch loop converts it into an ok:false
/// response.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

// --- the registry -----------------------------------------------------------

/// Thread-safe map of caller-chosen names -> resident AnalysisSessions.
///
/// A REGISTRATION (name, netlist, options) is cheap and persists until
/// unregister() or a replacing register_netlist(); a RESIDENT session
/// (engine plans, tuple cache, memoized artifacts) is the expensive part
/// and is bounded: at most max_resident sessions stay live, evicted
/// least-recently-used.  open() revives an evicted name from its
/// registration — the caches start cold, but the name keeps working.
///
/// The registration owns its netlist through a shared_ptr<const Netlist>
/// that every resident session of the name shares: a Netlist is immutable
/// once finalized, so a revival reuses the same object instead of copying
/// it.  Handed-out session pointers co-own the resident state, netlist
/// included, so neither eviction nor a replacing registration ever
/// invalidates a session another thread is mid-query on; they only drop
/// the registry's reference.
///
/// Every session opened here gets the registry's shared Executor injected
/// (SessionOptions::parallel.executor), so N resident sessions share one
/// worker pool.
class SessionRegistry {
 public:
  /// max_resident = 0 means unbounded.  `parallel` sizes the shared
  /// executor (0 = hardware concurrency).
  explicit SessionRegistry(std::size_t max_resident = 8,
                           ParallelConfig parallel = {});

  /// Registers (or replaces) `name`, taking ownership of the netlist.
  /// Does not make it resident; the first open() does.
  void register_netlist(std::string name, Netlist net,
                        SessionOptions opts = {});

  /// The resident session for `name`, reviving it from the registration
  /// if it was evicted (LRU-evicting another resident session beyond the
  /// cap) and marking it most-recently-used.  Throws ServiceError
  /// ("unknown_netlist") for unregistered names.
  std::shared_ptr<AnalysisSession> open(const std::string& name);

  /// The resident session for `name`, or nullptr when not resident /
  /// unregistered.  Never revives and never touches LRU order (a stats
  /// probe must not change eviction behavior).
  std::shared_ptr<AnalysisSession> find_resident(const std::string& name) const;

  /// Drops the resident session (caches, plans) but keeps the
  /// registration; returns false when it was not resident.
  bool evict(const std::string& name);

  /// Drops registration AND resident session; returns false when unknown.
  bool unregister(const std::string& name);

  std::vector<std::string> registered_names() const;  ///< sorted
  std::vector<std::string> resident_names() const;    ///< most recent first

  std::size_t max_resident() const { return max_resident_; }
  std::size_t num_resident() const;
  const std::shared_ptr<Executor>& executor() const { return exec_; }

 private:
  struct Resident;  ///< session + its netlist reference (opaque; service.cpp)

  struct Entry {
    std::shared_ptr<const Netlist> netlist;  ///< shared with every revival
    SessionOptions opts;
    std::shared_ptr<Resident> resident;  ///< null when evicted
    std::uint64_t last_use = 0;          ///< LRU clock value of last open
  };

  /// Session co-owning its resident state (netlist + session) via the
  /// aliasing constructor — eviction drops only the registry's reference.
  static std::shared_ptr<AnalysisSession> lease(
      const std::shared_ptr<Resident>& r);
  void enforce_cap_locked(const Entry* keep);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::uint64_t use_counter_ = 0;  ///< LRU clock (bumped per open)
  std::size_t max_resident_;
  std::shared_ptr<Executor> exec_;
};

// --- the protocol -----------------------------------------------------------

enum class ServiceVerb {
  LoadNetlist,  ///< register + open a netlist (zoo circuit or inline source)
  Lint,         ///< static analysis of the named netlist (src/lint passes)
  FaultBounds,  ///< static per-fault detection-probability intervals
  Analyze,      ///< one tuple through the named session
  Perturb,      ///< single-coordinate perturbation of a base tuple
  Optimize,     ///< hill-climb optimized input probabilities
  Stats,        ///< session counters (named) or registry overview (unnamed)
  Evict,        ///< drop the named resident session
  Shutdown,     ///< stop the serving loop after responding
  Submit,       ///< run a wrapped work verb as an async ticketed job
  Poll,         ///< job snapshot (never blocks); done jobs embed the response
  Wait,         ///< block until the job finishes (optional timeout_ms)
  Cancel,       ///< request cooperative cancellation of a job
  Jobs,         ///< list every job ticket this service has issued
};

/// How the serve loops dispatch a verb (see ServeOptions::max_inflight).
enum class VerbClass {
  Work,     ///< fans out across pipelined slots; the only class `submit` runs
  Inline,   ///< answers on the reading thread, in request order
  Barrier,  ///< drains in-flight work first, then answers inline
};

/// One row of the verb table: everything the protocol knows about a verb
/// apart from its handler.
struct VerbSpec {
  ServiceVerb verb;
  std::string_view name;
  VerbClass dispatch;
  /// The supervisor re-forwards it once after a worker loss (idempotent
  /// reads only).
  bool retried;
};

/// The verb table: one row per ServiceVerb, in declaration order.
std::span<const VerbSpec> verb_table();
const VerbSpec& spec_of(ServiceVerb verb);
/// The row named `name`, or nullptr.
const VerbSpec* find_verb(std::string_view name);

std::string_view to_string(ServiceVerb verb);
/// Throws ServiceError("unknown_verb") for unrecognized names.
ServiceVerb verb_from_string(std::string_view name);

/// A protocol integer (ids, tickets, budgets): JSON numbers are doubles,
/// so it must be non-negative, integral and at most 2^53.  Throws
/// std::runtime_error otherwise.
std::uint64_t protocol_uint(const JsonValue& v);

/// One decoded request.  Optional fields mirror the wire format: absent
/// members stay nullopt / empty and take verb-specific defaults at
/// dispatch.  `artifacts` (+ the grids inside it) selects what analyze /
/// perturb results compute and serialize, exactly like AnalysisRequest.
struct ServiceRequest {
  ServiceVerb verb = ServiceVerb::Stats;
  std::uint64_t id = 0;      ///< echoed verbatim in the response
  std::string netlist;       ///< target name ("" = service-wide for stats)

  // load_netlist: exactly one of `circuit` (zoo name) or `source`
  // (inline .bench / module-DSL text, auto-detected).
  std::string circuit;
  std::string source;
  std::string engine;                        ///< "" = service default
  std::optional<std::uint64_t> seed;         ///< monte-carlo seed
  std::optional<std::size_t> patterns;       ///< monte-carlo pattern budget
  std::optional<std::size_t> max_cached_results;
  /// load_netlist: lint the netlist first and reject it (error code
  /// "lint_failed") when any error-severity finding comes back.
  bool strict = false;

  // lint: pass subset ("" = every pass); prob-bounds reads `p`.
  std::vector<std::string> passes;
  /// lint: also run the opt-in fault passes (redundant-fault /
  /// untestable-fault); fault_bounds reads `p` / `input_probs`.
  bool faults = false;

  // analyze / perturb: the tuple, either explicit or uniform(p).
  std::vector<double> input_probs;
  std::optional<double> p;
  std::optional<AnalysisRequest> artifacts;

  // perturb
  std::size_t input_index = 0;
  double new_p = 0.5;
  bool screen = false;  ///< screening fidelity: the base's conditioning sets

  // optimize
  std::optional<std::uint64_t> n_parameter;  ///< default 10'000
  std::optional<unsigned> sweeps;            ///< default 4

  // submit: the wrapped work verb (shared so requests stay cheap to
  // copy; decoded from the wire member "request").
  std::shared_ptr<ServiceRequest> subrequest;

  // poll / wait / cancel
  std::optional<std::uint64_t> job;         ///< the ticket id
  std::optional<std::uint64_t> timeout_ms;  ///< wait only; absent = forever

  /// Any verb: a per-request wall-clock budget.  Work that overruns it is
  /// cancelled at its next checkpoint and answered with a structured
  /// `deadline_exceeded` error (decoded through the same guarded integer
  /// path as request ids — negative/fractional/oversized values are
  /// bad_request, never wrapped).
  std::optional<std::uint64_t> deadline_ms;

  std::string to_json(int indent = 0) const;
  /// Decodes a parsed document.  Throws ServiceError on unknown verbs,
  /// wrong member types, or out-of-range values.
  static ServiceRequest from_json_value(const JsonValue& doc);
  /// parse_json + from_json_value (JsonParseError surfaces as
  /// ServiceError "bad_request").
  static ServiceRequest from_json(std::string_view text);
};

struct ServiceResponse {
  std::uint64_t id = 0;
  std::string verb;  ///< echoed verb name ("" when undecodable)
  bool ok = false;
  /// Pre-serialized verb-specific payload, spliced into the response
  /// byte-for-byte (empty = null).  For analyze/perturb this is exactly
  /// AnalysisResult::to_json(0).
  std::string result_json;
  std::string error_code;     ///< set when !ok
  std::string error_message;  ///< set when !ok

  static ServiceResponse success(const ServiceRequest& req,
                                 std::string result_json);
  static ServiceResponse failure(std::uint64_t id, std::string_view verb,
                                 const std::string& code,
                                 const std::string& message);

  std::string to_json(int indent = 0) const;
  static ServiceResponse from_json_value(const JsonValue& doc);
  static ServiceResponse from_json(std::string_view text);
};

// --- the service ------------------------------------------------------------

struct ServiceConfig {
  std::size_t max_resident_sessions = 8;  ///< registry cap (0 = unbounded)
  ParallelConfig parallel;                ///< sizes the shared executor
  SessionOptions session_defaults;        ///< base options for load_netlist
  /// Threads draining the async job queue (the `submit` verb) — how many
  /// jobs RUN concurrently.  They are spawned lazily on the first submit,
  /// so purely synchronous services never pay for them.
  unsigned job_workers = 2;
};

/// One request line, decoded once.  Every serve loop decodes here and
/// hands the result to the fault injector and to the endpoint.
struct DecodedLine {
  /// The request's id and verb name.  For a line that does not decode, a
  /// best-effort echo, so its error is still correlatable: `verb` is the
  /// line's "verb" string whether or not it names a verb ("" when the
  /// line is not an object with a string verb), and `id` is 0 unless the
  /// line's "id" is a valid protocol integer.
  std::uint64_t id = 0;
  std::string verb;
  std::optional<ServiceRequest> request;  ///< unset when the line is invalid
  std::string error_code;                 ///< why, when unset
  std::string error_message;
};

DecodedLine decode_line(std::string_view line);

/// What the serving front ends (serve_ndjson / serve_tcp) actually need
/// from a back end: line-oriented dispatch plus a shutdown signal.  Both
/// ProtestService (in-process dispatch) and Supervisor (multi-process
/// routing, protest/supervisor.hpp) implement it, so every front end —
/// stdio, TCP, serial, pipelined — serves either back end unchanged.
class ServiceEndpoint {
 public:
  virtual ~ServiceEndpoint() = default;

  /// One NDJSON request line in, one compact JSON response line out (no
  /// trailing newline): decode_line, then answer.  Never throws for
  /// protocol-level failures; safe for concurrent callers.  The one
  /// deliberate exception: OperationCancelled propagates (see
  /// ProtestService::handle).
  std::string handle_line(std::string_view line) {
    return answer(decode_line(line));
  }

  /// The response line for a decoded line: its structured decode error,
  /// or the endpoint's response to its request.
  std::string answer(const DecodedLine& line);

  /// True once a shutdown request has been handled.
  virtual bool shutdown_requested() const = 0;

 protected:
  /// The response line for one decoded request.
  virtual std::string respond(const ServiceRequest& request) = 0;
};

/// Dispatches requests against a SessionRegistry.  One instance per
/// process/daemon; safe for concurrent handle()/handle_line() callers.
class ProtestService : public ServiceEndpoint {
 public:
  explicit ProtestService(ServiceConfig config = {});

  SessionRegistry& registry() { return registry_; }
  const SessionRegistry& registry() const { return registry_; }
  const ServiceConfig& config() const { return config_; }
  JobManager& jobs() { return jobs_; }
  const JobManager& jobs() const { return jobs_; }

  /// Typed dispatch.  Never throws for protocol-level failures — they
  /// come back as ok:false responses with a structured error.  A request
  /// carrying `deadline_ms` runs under a deadline CancelToken (linked to
  /// the caller's ambient token, so job cancellation still works) and
  /// answers `deadline_exceeded` when the budget expires mid-work.
  ServiceResponse handle(const ServiceRequest& request);

  /// True once a shutdown request has been handled.
  bool shutdown_requested() const override {
    return shutdown_.load(std::memory_order_acquire);
  }

 protected:
  std::string respond(const ServiceRequest& request) override {
    return handle(request).to_json(0);
  }

 private:
  std::string dispatch(const ServiceRequest& request);  ///< result payload

  ServiceConfig config_;
  SessionRegistry registry_;
  std::atomic<bool> shutdown_{false};
  /// Declared last: its destructor cancels and joins in-flight jobs,
  /// which still dispatch against the registry above.
  JobManager jobs_;
};

/// Auto-detects .bench vs module-DSL text (DSL descriptions contain a
/// 'module' definition) and elaborates it.  The CLI's file loader and the
/// load_netlist verb's `source` both read netlist text through it.
Netlist netlist_from_text(const std::string& text);

/// Front-end dispatch knobs (`protest serve --inflight N`).
struct ServeOptions {
  /// 0 (default): serial dispatch — one request at a time, responses in
  /// request order (the historical behavior).
  ///
  /// N >= 1: PIPELINED dispatch, by each verb's VerbClass in the verb
  /// table.  Work verbs fan out across up to N in-flight dispatch slots
  /// and their responses return OUT OF ORDER, correlated by `id`; reading
  /// stalls while all N slots are busy — connection-level backpressure,
  /// so a client that floods requests is throttled by its own unfinished
  /// work.  Response BYTES are identical to serial mode; only the order
  /// changes.  The other two classes keep deterministic ordering: Inline
  /// verbs (job control and stats) run on the reading thread in request
  /// order (they are cheap; a `wait` deliberately blocks the stream —
  /// pipelining clients should poll), and Barrier verbs (the registry-
  /// mutating ones and shutdown) let in-flight work drain first, then run
  /// inline.  That makes scripted conversations (load, then queries) mean
  /// the same thing pipelined as serial.  Lines that name no verb answer
  /// inline.
  std::size_t max_inflight = 0;
};

/// The daemon loop: reads one request per line from `in` (blank lines are
/// skipped), writes one response line to `out` (flushed per response),
/// returns 0 when the stream ends, the output stream fails (a downstream
/// pipe closed — SIGPIPE is ignored on POSIX so the write fails instead
/// of killing the process), or a shutdown verb was handled.  With
/// options.max_inflight > 0, work-verb responses may return out of order
/// (see ServeOptions).  A non-null `injector` (protest/fault_inject.hpp) is
/// consulted once per received request line BEFORE dispatch; this is how
/// `protest __serve-worker` arms PROTEST_FAULT_INJECT.  It must outlive
/// the call.  serve_tcp takes none: one injector shared by its connection
/// threads would race.
int serve_ndjson(ServiceEndpoint& service, std::istream& in, std::ostream& out,
                 ServeOptions options = {}, FaultInjector* injector = nullptr);

/// True when this build can serve TCP (POSIX sockets).
bool tcp_serve_supported();

/// Listens on 127.0.0.1:`port` (0 = OS-assigned) and speaks the NDJSON
/// protocol per connection, each on its own thread — concurrent clients
/// dispatch into the shared registry.  If `bound_port` is non-null it
/// receives the actual port before accepting begins (atomic so an
/// embedding thread can poll it).  `options` applies per connection
/// (pipelined dispatch slots and backpressure are connection-level).
/// A client that disconnects mid-response logs-and-closes its own
/// connection (SIGPIPE ignored, MSG_NOSIGNAL on sends) — never the
/// daemon; a hard drop (reset) additionally cancels that connection's
/// in-flight pipelined work at its next checkpoint, while ticketed jobs
/// keep running and stay pollable from new connections.
/// Returns 0 after a shutdown verb (from any client) stops the loop;
/// throws std::runtime_error on socket failures and
/// ServiceError("unsupported") on platforms without sockets.
int serve_tcp(ServiceEndpoint& service, std::uint16_t port, std::ostream& log,
              std::atomic<std::uint16_t>* bound_port = nullptr,
              ServeOptions options = {});

}  // namespace protest
