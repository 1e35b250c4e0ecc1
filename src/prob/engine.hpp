// The polymorphic signal-probability engine layer.  The paper's point
// estimator (sect. 2) is one of several ways to compute per-node signal
// probabilities; the library also ships an independence propagation
// (Agrawal), two exact oracles (BDD, enumeration) and a Monte-Carlo
// reference.  SignalProbEngine gives all of them one API so that callers —
// the analysis session, the hill-climb objective, the CLI, the benches —
// can swap or cross-validate engines freely.
//
// Input validation (arity, range, finalized netlist) happens in the base
// class, so every engine behaves uniformly and implementations only see
// validated tuples.  (The wrapped free functions keep their own checks for
// direct callers; the redundancy is O(inputs) and deliberate.)
//
// Every exact evaluation returns an Evaluation: the probabilities plus
// the tuple-dependent choice behind them (the PROTEST engine's
// conditioning sets; null for the other engines).  perturb() and screen()
// take a base Evaluation, so an engine never has to remember which tuple
// it saw last.
//
// Thread safety: every engine is safe for concurrent const calls.  The
// PROTEST engine builds its per-netlist plan once under std::call_once
// and allocates scratch per call, the naive engine's fanout cones fill
// under a lock, and the exact engines are pure functions.  The
// Monte-Carlo engine runs one evaluation at a time behind a mutex: it
// already parallelizes INTERNALLY (internally_parallel() == true when
// configured with > 1 thread), sharding its pattern budget across a
// private pool with bit-identical results for any thread count (see
// prob/monte_carlo.hpp for the stream-derivation rule).  So parallel
// callers share one engine, and their results are bit-identical to
// serial calls.
//
// Cancellation: every public entry point checkpoints the calling
// thread's CancelToken (util/cancel.hpp) before evaluating, throwing
// OperationCancelled when an async job has been cancelled; the
// Monte-Carlo engine additionally checkpoints at every shard boundary.
// Under the inert default token the checks cost one branch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/cone.hpp"
#include "prob/protest_estimator.hpp"
#include "prob/signal_prob.hpp"
#include "util/thread_pool.hpp"

namespace protest {

class SignalProbEngine {
 public:
  virtual ~SignalProbEngine() = default;

  SignalProbEngine(const SignalProbEngine&) = delete;
  SignalProbEngine& operator=(const SignalProbEngine&) = delete;

  /// Registry key of this engine ("protest", "naive", ...).
  std::string_view name() const { return name_; }
  const Netlist& netlist() const { return net_; }

  /// One exact evaluation of an input tuple.  Validates the tuple
  /// (throws std::invalid_argument on arity/range errors) before
  /// dispatching to the implementation.
  Evaluation evaluate(std::span<const double> input_probs) const;

  /// Per-node signal probabilities: evaluate(input_probs).probs.
  std::vector<double> signal_probs(std::span<const double> input_probs) const;

  /// Exact incremental re-evaluation for a single-coordinate perturbation:
  /// given a base evaluation (`base` is what evaluate() or perturb()
  /// returned for `base_inputs`), evaluates the tuple that differs from
  /// `base_inputs` only at `input_index`, where it takes `new_p`.  The
  /// result is bit-for-bit identical to evaluate() on the perturbed tuple
  /// for every engine, its selection included: incremental engines
  /// (protest, naive) re-evaluate only the transitive fanout cone of the
  /// changed input — nodes outside that cone are functions of unchanged
  /// values — while the rest fall back to a full deterministic
  /// re-evaluation.
  Evaluation perturb(std::span<const double> base_inputs,
                     const Evaluation& base, std::size_t input_index,
                     double new_p) const;

  /// The neighborhood-screening fidelity of perturb(): engines with
  /// tuple-dependent conditioning sets (protest) evaluate the perturbed
  /// tuple under the sets in `base.selection`, at eval-only cost; the
  /// other engines return perturb()'s probabilities.  A screened result
  /// never seeds another perturb, so only probabilities come back.
  std::vector<double> screen(std::span<const double> base_inputs,
                             const Evaluation& base, std::size_t input_index,
                             double new_p) const;

  /// True when perturb() and screen() re-evaluate only the fanout cone of
  /// the changed input instead of recomputing the whole netlist.
  virtual bool incremental() const { return false; }

  /// True when the engine fans single evaluations across its own thread
  /// pool (the sharded Monte-Carlo engine with > 1 configured thread).
  /// Callers that parallelize across evaluations should run such engines
  /// serially instead of oversubscribing the machine.
  virtual bool internally_parallel() const { return false; }

 protected:
  /// Throws std::invalid_argument unless `net` is finalized.
  SignalProbEngine(const Netlist& net, std::string name);

  /// One validated tuple -> its evaluation.
  virtual Evaluation compute(std::span<const double> input_probs) const = 0;

  /// Validated perturbation -> its evaluation.  Default: build the
  /// perturbed tuple and run compute() from scratch (identical by
  /// determinism); incremental engines override.
  virtual Evaluation compute_perturb(std::span<const double> base_inputs,
                                     const Evaluation& base,
                                     std::size_t input_index,
                                     double new_p) const;

  /// Validated screen -> probabilities.  Default: compute_perturb()'s.
  virtual std::vector<double> compute_screen(
      std::span<const double> base_inputs, const Evaluation& base,
      std::size_t input_index, double new_p) const;

 private:
  const Netlist& net_;
  std::string name_;
};

// --- concrete engines -------------------------------------------------------

/// Independence propagation [AgAg75]; exact on fanout-reconvergence-free
/// circuits, "cases 1-3 only" elsewhere.  O(gates) per tuple.
class NaiveEngine final : public SignalProbEngine {
 public:
  explicit NaiveEngine(const Netlist& net);
  bool incremental() const override { return true; }

 protected:
  Evaluation compute(std::span<const double> input_probs) const override;
  Evaluation compute_perturb(std::span<const double> base_inputs,
                             const Evaluation& base, std::size_t input_index,
                             double new_p) const override;

 private:
  InputFanoutCones fanout_cones_;  ///< incremental work lists
};

/// Exact probabilities via ROBDDs.  Exponential worst case; throws
/// BddLimitExceeded beyond `node_limit` BDD nodes.
class ExactBddEngine final : public SignalProbEngine {
 public:
  explicit ExactBddEngine(const Netlist& net,
                          std::size_t node_limit = 2'000'000);
  std::size_t node_limit() const { return node_limit_; }

 protected:
  Evaluation compute(std::span<const double> input_probs) const override;

 private:
  std::size_t node_limit_;
};

/// Exact probabilities by weighted exhaustive enumeration (<= 24 inputs).
class ExactEnumEngine final : public SignalProbEngine {
 public:
  explicit ExactEnumEngine(const Netlist& net);

 protected:
  Evaluation compute(std::span<const double> input_probs) const override;
};

struct MonteCarloEngineParams {
  std::size_t num_patterns = 100'000;
  std::uint64_t seed = 1;
  /// Workers the pattern shards fan across (see prob/monte_carlo.hpp for
  /// the sharding scheme).  Results are bit-identical for every value.
  ParallelConfig parallel;
};

/// STAFAN-style Monte-Carlo reference: simulate weighted random patterns
/// and count ones.  Evaluation shards the pattern budget across a private
/// thread pool — counter-based per-shard RNG streams make the estimate
/// bit-identical for any thread count — and the per-worker simulators
/// persist across evaluations.
class MonteCarloEngine final : public SignalProbEngine {
 public:
  explicit MonteCarloEngine(const Netlist& net,
                            MonteCarloEngineParams params = {});
  ~MonteCarloEngine() override;
  const MonteCarloEngineParams& params() const { return params_; }
  bool internally_parallel() const override;

 protected:
  Evaluation compute(std::span<const double> input_probs) const override;

 private:
  struct Worker;  ///< per-worker simulator + one-counts + word scratch

  MonteCarloEngineParams params_;
  /// One evaluation at a time: a run already uses every worker, and the
  /// pool and per-worker simulators below are its scratch.  The executor
  /// may be a SHARED one injected through params_.parallel.executor — it
  /// serializes jobs internally.
  mutable std::mutex run_mu_;
  mutable std::shared_ptr<Executor> exec_;
  mutable std::vector<std::unique_ptr<Worker>> workers_;
};

/// The paper's estimator (sect. 2) behind the engine API.  Evaluations
/// carry the conditioning sets they selected; screen() conditions on the
/// base's (see ProtestEstimator).
class ProtestEngine final : public SignalProbEngine {
 public:
  explicit ProtestEngine(const Netlist& net, ProtestParams params = {});

  const ProtestParams& params() const { return estimator_.params(); }
  /// Statistics of the most recent full evaluation.
  ProtestStats stats() const { return estimator_.stats(); }
  const ProtestEstimator& estimator() const { return estimator_; }
  bool incremental() const override { return true; }

 protected:
  Evaluation compute(std::span<const double> input_probs) const override;
  Evaluation compute_perturb(std::span<const double> base_inputs,
                             const Evaluation& base, std::size_t input_index,
                             double new_p) const override;
  std::vector<double> compute_screen(std::span<const double> base_inputs,
                                     const Evaluation& base,
                                     std::size_t input_index,
                                     double new_p) const override;

 private:
  ProtestEstimator estimator_;
};

// --- factory / registry -----------------------------------------------------

/// Construction knobs for the built-in engines; each engine reads only its
/// own section.
struct EngineConfig {
  ProtestParams protest;
  MonteCarloEngineParams monte_carlo;
  std::size_t bdd_node_limit = 2'000'000;
};

using EngineFactory = std::function<std::unique_ptr<SignalProbEngine>(
    const Netlist&, const EngineConfig&)>;

/// Instantiates a registered engine.  Built-in names: "protest", "naive",
/// "exact-bdd", "exact-enum", "monte-carlo".  Throws std::invalid_argument
/// for unknown names (the message lists the registered ones).
std::unique_ptr<SignalProbEngine> make_engine(const std::string& name,
                                              const Netlist& net,
                                              const EngineConfig& config = {});

/// All registered engine names, sorted.
std::vector<std::string> engine_names();

/// Adds (or replaces) a factory under `name`; the seam future backends
/// plug into.
void register_engine(const std::string& name, EngineFactory factory);

}  // namespace protest
