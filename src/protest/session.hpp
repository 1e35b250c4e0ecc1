// The session-oriented analysis API.
//
// An AnalysisSession owns one signal-probability engine plus everything
// expensive that outlives a single query: the engine's per-netlist plan
// (cone topology, conditioning-set candidates — cached inside the engine),
// the tool fault list, and an LRU cache of evaluated input tuples.
// Callers describe which artifacts they want with an AnalysisRequest and
// receive an AnalysisResult whose artifacts are computed lazily and
// memoized — asking only for signal probabilities never pays for
// observability, detection probabilities, SCOAP/STAFAN measures or the
// test-length grid.  The cache keeps what costs an evaluation, a sweep or
// a simulation to rebuild (the Evaluation, fault bounds, STAFAN); the
// observability and detection-probability views, one linear backward pass
// away, belong to the result handles.
//
//   AnalysisSession session(net);
//   AnalysisRequest req;
//   req.test_lengths = true;                       // opt into the (d,e) grid
//   AnalysisResult r = session.analyze(probs, req);
//   r.detection_probs();                           // computed on first access
//   std::string json = r.to_json();                // machine-readable result
//
// Repeated tuples are cache hits (the same shared result state comes
// back, with the views of any live handle of it); near-duplicate tuples —
// differing from a cached tuple in exactly one coordinate — are routed
// through the engine's incremental path, which re-evaluates only the
// changed input's fanout cone.  perturb() exposes that path explicitly and
// is the backend for the hill climber's per-coordinate neighborhood
// sweeps.  Incremental results are bit-for-bit identical to from-scratch
// evaluation (see SignalProbEngine::perturb), so the cache never mixes
// approximation levels.  Each result keeps the engine's Evaluation,
// conditioning sets included, so a screen of any cached tuple conditions
// on that tuple's sets without re-selecting.
//
// Thread safety: a session is safe for CONCURRENT callers.  Engines are
// safe for concurrent calls, so the session's mutex guards only its cache
// and counters: analyze() and perturb() look up, evaluate and insert
// under it, while screens and sweeps evaluate outside it.  Lazy artifact
// materialization on shared AnalysisResults is guarded per result — two
// threads asking live handles of one tuple for detection probabilities
// compute them once.  Throughput inside a query comes from the Monte-Carlo
// engine, which shards its patterns across threads, from
// perturb_screen_sweep(), which fans a neighborhood across the session's
// executor, from the fault_bounds artifact, which fans its fault list
// across the same executor, and from to_json(), which writes its node- and
// fault-sized arrays in chunks on it (SessionOptions::parallel sizes all
// four; the bytes are the same at every worker count).
// The netlist must outlive the session and every result obtained from it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lint/fault_analyze.hpp"
#include "measures/scoap.hpp"
#include "measures/stafan.hpp"
#include "observe/observability.hpp"
#include "prob/engine.hpp"
#include "sim/fault.hpp"
#include "util/thread_pool.hpp"

namespace protest {

namespace detail {
struct SessionShared;  ///< netlist + engine + faults + options (internal)
}  // namespace detail

enum class FaultUniverse { Structural, Full, Collapsed };

/// Session construction knobs; the engine-related fields mirror
/// EngineConfig, the rest size the session's own caches and samplers.
struct SessionOptions {
  ProtestParams estimator;
  ObservabilityOptions observability;
  FaultUniverse universe = FaultUniverse::Structural;
  /// Signal-probability engine (a make_engine registry key).  The paper's
  /// estimator is the default; "naive", "exact-bdd", "exact-enum" and
  /// "monte-carlo" swap in the alternatives for cross-validation.
  std::string engine = "protest";
  MonteCarloEngineParams monte_carlo;     ///< used when engine=="monte-carlo"
  std::size_t bdd_node_limit = 2'000'000; ///< used when engine=="exact-bdd"
  /// LRU bound on cached evaluated tuples (0 disables the result cache;
  /// perturb() still works, it just never finds cached bases for
  /// near-duplicate analyze() calls).
  std::size_t max_cached_results = 32;
  std::size_t stafan_patterns = 10'000;   ///< STAFAN artifact sample size
  std::uint64_t stafan_seed = 1;          ///< STAFAN artifact pattern seed
  /// Worker count for everything the session parallelizes: the sharded
  /// Monte-Carlo engine (when engine == "monte-carlo"), the
  /// perturb_screen_sweep neighborhood fan-out, the fault_bounds sweep and
  /// the serialization of arrays longer than one JsonWriter chunk, all on
  /// one executor (the injected one, or one private pool per session).
  /// Results are bit-identical for every value; 1 is the serial path.
  ParallelConfig parallel;
};

/// Selects the artifacts a query wants.  Requested artifacts are
/// materialized before analyze() returns (except on a cache hit, which
/// leaves observability and detection probabilities to their first read)
/// and included in to_json() / write_report(); everything else remains
/// available lazily through the result's accessors.  Signal probabilities
/// are always computed — they are the base every other artifact derives
/// from.
struct AnalysisRequest {
  bool observability = true;
  bool detection_probs = true;
  bool test_lengths = false;  ///< the (d_grid x e_grid) pattern counts
  bool scoap = false;         ///< SCOAP measures (input-independent)
  bool stafan = false;        ///< STAFAN measures (simulation-sampled)
  /// Static per-fault detection-probability intervals (lint/fault_analyze).
  /// Also disciplines the serialized detection probabilities: estimates
  /// are clamped into their sound [lo, hi], proven-undetectable faults
  /// report exactly 0.
  bool fault_bounds = false;
  std::vector<double> d_grid = {1.0, 0.98};
  std::vector<double> e_grid = {0.95, 0.98, 0.999};

  /// Just signal probabilities — the cheapest request.
  static AnalysisRequest minimal();
  /// Every artifact including SCOAP/STAFAN and the test-length grid.
  static AnalysisRequest everything();
};

/// One row of the artifact-name vocabulary: the wire/CLI name of an
/// optional artifact and the AnalysisRequest flag it selects.
struct ArtifactName {
  std::string_view name;
  bool AnalysisRequest::* flag;
};

/// THE artifact name⇄flag table, shared by every front end — the CLI's
/// `--artifacts` comma list and the service's JSON `artifacts` array both
/// decode through it (and the service encoder iterates it), so an
/// artifact added here is automatically spellable on every surface
/// instead of silently missing from one.  "signal_probs" is not listed:
/// it is always computed (the base every other artifact derives from) and
/// set_artifact() accepts it as a no-op.
std::span<const ArtifactName> artifact_name_table();

/// Sets the flag named `name` on `req`; returns false for unknown names
/// (true for the always-on "signal_probs").
bool set_artifact(AnalysisRequest& req, std::string_view name);

/// Space-separated list of every accepted name, "signal_probs" first —
/// the vocabulary both front ends print in their unknown-artifact errors.
std::string known_artifact_names();

class JsonWriter;

/// Counters for the session's caching behavior (cumulative), plus a
/// point-in-time view of what is resident.  stats() fills both.
struct SessionStats {
  std::size_t analyze_calls = 0;
  std::size_t cache_hits = 0;         ///< exact-tuple cache hits
  std::size_t incremental_evals = 0;  ///< exact perturb-path evaluations
  /// Screening evals, each cone-sized: they condition on the base
  /// result's own conditioning sets, so none re-selects.
  std::size_t screen_evals = 0;
  std::size_t full_evals = 0;         ///< from-scratch engine evaluations
  /// Tuples currently held by the LRU result cache (snapshot, not
  /// cumulative): together with full/incremental counts this is the
  /// resident plan state a service 'stats' query reports.
  std::size_t resident_results = 0;
  /// Element bytes those cached tuples keep (snapshot): the tuples, signal
  /// probabilities, conditioning sets, and the fault bounds and STAFAN
  /// measures memoized so far.  Observability and detection probabilities
  /// are never counted: they live with the result handles, not the cache.
  std::size_t resident_bytes = 0;
  /// Static-analysis summary (src/lint): how many lint runs this session
  /// has recorded and the LAST report's severity totals — the service's
  /// `lint` verb and `load_netlist` strict mode both record here.
  std::size_t lint_runs = 0;
  std::size_t lint_errors = 0;
  std::size_t lint_warnings = 0;
  std::size_t lint_infos = 0;

  /// Misses = analyze calls that had to evaluate (full or incremental).
  std::size_t cache_misses() const { return analyze_calls - cache_hits; }

  /// Writes the counters as an object in value position (the wire form
  /// the daemon's `stats` verb embeds).
  void write(JsonWriter& w) const;
  std::string to_json(int indent = 2) const;
};

/// Handle to one analyzed input tuple.  Cheap to copy (shared state).
/// Fault bounds and STAFAN are memoized in the tuple's shared state, so
/// computing them through any handle benefits every later one, including
/// the session cache's.  Observability and detection probabilities are
/// memoized in a views block the handles own: copies share it, a cache
/// hit re-attaches to it while any handle of the tuple still holds it,
/// and otherwise the hit rebuilds the views bit-identically on first read.
/// So the cache never keeps views alive.  References returned by the
/// accessors stay valid while this handle or a copy of it lives.
class AnalysisResult {
 public:
  /// Shared memoization record held by the cache (opaque; session.cpp).
  struct State;
  /// Handle-owned observability and detection memos (opaque; session.cpp).
  struct Views;

  AnalysisResult() = default;  ///< empty handle; accessors throw

  bool valid() const { return state_ != nullptr; }
  const Netlist& netlist() const;
  std::string_view engine() const;
  const AnalysisRequest& request() const { return request_; }
  const std::vector<Fault>& faults() const;

  const std::vector<double>& input_probs() const;
  const std::vector<double>& signal_probs() const;
  const Observability& observability() const;         ///< lazy, handle-owned
  const std::vector<double>& detection_probs() const; ///< lazy, handle-owned
  const ScoapMeasures& scoap() const;                 ///< lazy, session-shared
  const StafanMeasures& stafan() const;               ///< lazy, memoized

  /// Static per-fault detection-probability intervals for this tuple
  /// (lint/fault_analyze), lazy and memoized.  The tuple-independent
  /// FaultContext is built once per session, by the first call on any of
  /// its results, and reused for every later tuple; nothing builds it at
  /// load or for a request that did not ask for fault bounds.  The fault
  /// list fans out across the session's executor in fixed-size tasks (a
  /// list of one task, like alu's, runs inline), and the result is field-
  /// for-field the serial analyze_faults for every worker count.  Each
  /// task boundary is a cancellation checkpoint; a cancelled call
  /// memoizes nothing, so the next call recomputes.
  const FaultAnalysis& fault_bounds() const;

  /// Smallest N with P_{F_d} >= e for this tuple (paper sect. 5).
  std::uint64_t test_length(double d, double e) const;

  /// Serializes the requested artifacts (computing any that are missing).
  /// Unreachable test lengths serialize as null.  indent = 0 for compact.
  /// Arrays longer than one chunk (JsonWriter::elements) are written across
  /// the session's executor; the document is the same at any worker count.
  std::string to_json(int indent = 2) const;

 private:
  friend class AnalysisSession;
  AnalysisResult(std::shared_ptr<State> state, std::shared_ptr<Views> views,
                 AnalysisRequest request);

  std::shared_ptr<State> state_;
  std::shared_ptr<Views> views_;
  AnalysisRequest request_;
};

/// Writes the members of a fault-bounds payload into the open object:
/// `summary` (the census), then `faults`, the first `limit` per-fault
/// entries (fault, lo, hi, verdict, and cause and truncated where set),
/// then `"faults_truncated": true` when the limit cut the list.  The
/// entries are written on `exec` by JsonWriter::elements, so the bytes are
/// the same for every worker count.  AnalysisResult::to_json (no limit)
/// and the service's fault_bounds verb (capped) both write through it.
void write_fault_bounds(JsonWriter& w, const Netlist& net,
                        std::span<const Fault> faults, const FaultAnalysis& fa,
                        std::size_t limit, Executor* exec);

class AnalysisSession {
 public:
  explicit AnalysisSession(const Netlist& net, SessionOptions opts = {});

  /// Evaluates through a caller-provided engine (must be built on `net`)
  /// and an explicit fault list, ignoring opts.engine / opts.universe.
  /// This is how the ObjectiveEvaluator shares its engine and fault list
  /// with a session.
  AnalysisSession(const Netlist& net,
                  std::shared_ptr<const SignalProbEngine> engine,
                  std::vector<Fault> faults, SessionOptions opts = {});

  ~AnalysisSession();
  AnalysisSession(AnalysisSession&&) noexcept;

  const Netlist& netlist() const;
  const SignalProbEngine& engine() const;
  std::shared_ptr<const SignalProbEngine> engine_ptr() const;
  const std::vector<Fault>& faults() const;
  const SessionOptions& options() const;
  /// Snapshot of the cumulative counters (by value: safe to call while
  /// other threads query the session).
  SessionStats stats() const;

  /// Records one lint run's severity totals into the stats (the latest
  /// run wins; lint_runs counts them all).  Thread-safe.
  void record_lint(std::size_t errors, std::size_t warnings,
                   std::size_t infos);

  /// Analyzes one input tuple.  Exact repeats return the cached shared
  /// result; near-duplicates of a cached tuple go through the incremental
  /// path when the engine supports it; everything else is a full engine
  /// evaluation.  All three produce identical numbers.
  AnalysisResult analyze(std::span<const double> input_probs,
                         AnalysisRequest request = {});

  /// analyze() for every tuple, in order: every element has exact
  /// single-tuple semantics, and the engine's plan, built once, already
  /// amortizes the per-netlist setup.
  std::vector<AnalysisResult> analyze_batch(std::span<const InputProbs> tuples,
                                            AnalysisRequest request = {});

  /// Incremental re-analysis: the tuple equal to `base` except input
  /// `input_index` carries `new_p`.  Only the changed input's fanout cone
  /// is re-evaluated (for incremental engines); the result is bit-for-bit
  /// what analyze() would return for the perturbed tuple and is inserted
  /// into the cache under that tuple.  The request is inherited from
  /// `base`.  `base` must come from this session and have exact fidelity
  /// (a perturb_screen() product is rejected — the cache must never mix
  /// fidelities).
  AnalysisResult perturb(const AnalysisResult& base, std::size_t input_index,
                         double new_p);

  /// Screening-fidelity perturb for neighborhood sweeps: engines with
  /// tuple-dependent conditioning sets condition on the ones `base` was
  /// evaluated with (SignalProbEngine::screen) — bit-for-bit a full
  /// evaluation of the perturbed tuple under those sets, at eval-only cost
  /// over the changed input's fanout cone.  The result is NOT inserted into
  /// the session cache (the cache holds exact-fidelity tuples only); use
  /// perturb()/analyze() to confirm a screened candidate exactly.
  AnalysisResult perturb_screen(const AnalysisResult& base,
                                std::size_t input_index, double new_p);

  /// perturb_screen() for every value of `values` (same base, same
  /// coordinate) — the hill climber's per-coordinate neighborhood in one
  /// call.  With > 1 configured worker the candidates fan out across the
  /// session's executor, all through the one engine, and the requested
  /// artifacts (observability, detection probabilities) are materialized
  /// inside the workers, so the whole screening pipeline parallelizes.
  /// Every task checks for cancellation before it starts.  Element i is
  /// bit-for-bit perturb_screen(base, input_index, values[i]) for any
  /// thread count.
  /// Engines that parallelize internally (sharded Monte-Carlo) sweep
  /// serially — each candidate already uses every core.
  std::vector<AnalysisResult> perturb_screen_sweep(
      const AnalysisResult& base, std::size_t input_index,
      std::span<const double> values);

  void clear_cache();

 private:
  class ResultCache;

  /// A handle on `state` and `views` with the request's artifacts
  /// materialized.  `fresh` states (just evaluated) also build the
  /// requested views; a cache hit leaves them to their first read.
  AnalysisResult wrap(std::shared_ptr<AnalysisResult::State> state,
                      std::shared_ptr<AnalysisResult::Views> views,
                      const AnalysisRequest& request, bool fresh);
  /// One screen: evaluate, build the screening-fidelity state,
  /// materialize the base request's artifacts.  The single body behind
  /// perturb_screen and both perturb_screen_sweep branches.
  AnalysisResult screen_one(const AnalysisResult& base,
                            std::size_t input_index, double new_p);
  /// The cache-miss half of analyze() and perturb(): a result state for
  /// `key` holding `eval`, inserted into the cache.  Caller holds mu_.
  std::shared_ptr<AnalysisResult::State> insert(std::vector<double> key,
                                                Evaluation eval);
  void check_perturb_args(const AnalysisResult& base, std::size_t input_index,
                          double new_p) const;

  std::shared_ptr<detail::SessionShared> shared_;
  std::unique_ptr<ResultCache> cache_;
  SessionStats stats_;
  /// Serializes cache + stats access across concurrent callers
  /// (unique_ptr so the session stays movable).
  std::unique_ptr<std::mutex> mu_;
};

}  // namespace protest
