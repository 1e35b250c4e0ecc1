// The optimization objective of sect. 6: for an input-probability tuple X,
//
//   J_N(X) = prod_{f in F} ( 1 - (1 - P_f(X))^N )
//
// "an estimation of the probability that N realizations of X detect the
// whole F".  Maximizing J_N maximizes fault detection; N is only a
// numerical parameter.  We work with log J_N for stability.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "observe/observability.hpp"
#include "prob/engine.hpp"
#include "protest/session.hpp"
#include "sim/fault.hpp"

namespace protest {

/// Bundles the estimation pipeline (signal probabilities -> observability
/// -> detection probabilities) behind a single evaluation call.  The
/// signal-probability stage is a pluggable SignalProbEngine evaluated
/// through an internal AnalysisSession, so repeated tuples are cache hits
/// and the hill climber's per-coordinate neighborhoods go through the
/// session's screening sweep — each candidate re-evaluates only the
/// changed input's fanout cone, under the current point's conditioning
/// sets.
class ObjectiveEvaluator {
 public:
  /// Evaluates through the given engine, which other sessions may share.
  /// `parallel` sizes the neighborhood fan-out (the session sweep's
  /// executor); objective values are bit-identical for every thread
  /// count.
  ObjectiveEvaluator(std::shared_ptr<const SignalProbEngine> engine,
                     std::vector<Fault> faults, std::uint64_t n_parameter,
                     ObservabilityOptions obs_opts = {},
                     ParallelConfig parallel = {});

  /// Convenience: evaluates through the paper's PROTEST engine.
  ObjectiveEvaluator(const Netlist& net, std::vector<Fault> faults,
                     std::uint64_t n_parameter, ProtestParams params = {},
                     ObservabilityOptions obs_opts = {},
                     ParallelConfig parallel = {});

  /// Estimated detection probability of every fault under X.
  std::vector<double> detection_probs(std::span<const double> input_probs) const;

  /// log J_N(X); -inf if any fault is estimated undetectable.
  double log_objective(std::span<const double> input_probs) const;

  /// log J_N for the base tuple and for every candidate value of one
  /// coordinate — the hill climber's per-coordinate neighborhood, routed
  /// through the session's incremental path: the base is analyzed exactly
  /// once (usually a cache hit within a sweep) and each candidate is a
  /// screening perturb that re-evaluates only coordinate `coord`'s fanout
  /// cone under the conditioning sets selected at `base`.  With > 1
  /// configured thread the candidates — including their observability and
  /// detection-probability stages — fan out across the session's executor
  /// (perturb_screen_sweep).  Candidate values are bit-for-bit a full
  /// evaluation of each candidate tuple under the base's sets, for any
  /// thread count; `base` itself is exact.
  struct NeighborhoodObjectives {
    double base = 0.0;
    std::vector<double> candidates;  ///< one per entry of `values`
  };
  NeighborhoodObjectives log_objectives_neighborhood(
      std::span<const double> base, std::size_t coord,
      std::span<const double> values) const;

  /// log J_N from precomputed detection probabilities.
  double log_objective_from_probs(std::span<const double> detection_probs) const;

  std::uint64_t n_parameter() const { return n_; }
  const std::vector<Fault>& faults() const { return session_.faults(); }
  const Netlist& netlist() const { return session_.netlist(); }
  const SignalProbEngine& engine() const { return session_.engine(); }

 private:
  std::uint64_t n_;
  /// Owns the engine handle, fault list, and observability options, and
  /// provides the evaluation cache + incremental backend; mutable because
  /// objective evaluation is logically const while the session memoizes.
  mutable AnalysisSession session_;
};

}  // namespace protest
