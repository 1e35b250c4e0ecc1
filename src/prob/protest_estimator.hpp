// The PROTEST signal-probability estimator (paper sect. 2).
//
// For every gate whose fanin cones reconverge, the estimator conditions on
// a bounded subset W of the joining points V(a,b): formula (2),
//
//   p_k ~ sum over assignments A_v of W:  P(A_v) * f(P(a_1|A_v),...,P(a_n|A_v))
//
// Conditional probabilities P(a_i | A_v) are obtained by re-propagating the
// (depth-bounded) fanin cone with the joining points pinned to constants.
// The cone is propagated once unpinned per gate and tuple; each pinned
// re-propagation then recomputes only the members downstream of a pin.
// P(A_v) is computed as a chain of the same conditionals in topological
// order (exact relative to the in-cone propagation, sharper than the
// independence product).
//
// W is selected by the covariance criterion of the paper: maximize
// |Cov(a,x) * Cov(b,x)| / S(p_x)^2, with covariances obtained from the
// one-point conditionals Cov(a,x) = p_x (1-p_x) (P(a|x=1) - P(a|x=0)).
//
// Parameters (paper sect. 2): MAXVERS bounds |W|, MAXLIST bounds the path
// length searched for joining points.
//
// Thread safety: an estimator is NOT safe for concurrent use, even
// through const methods — the per-gate plan, the selection state the
// incremental paths rely on, and the evaluation scratch are memoized
// across calls.  Use one estimator per thread.
#pragma once

#include <cstddef>
#include <memory>

#include "prob/signal_prob.hpp"

namespace protest {

struct ProtestParams {
  /// Maximal number of joining points conditioned on per gate (|W|).
  unsigned maxvers = 4;
  /// Maximal backward path length searched for joining points (0 = no bound).
  unsigned maxlist = 12;
  /// Cap on candidate joining points that are scored per gate.
  unsigned max_candidates = 24;
  /// Scores below this threshold never enter W.
  double min_score = 1e-12;
};

struct ProtestStats {
  std::size_t gates_conditioned = 0;   ///< gates that used formula (2)
  std::size_t total_joining_points = 0;///< sum of candidate |V| over gates
  std::size_t max_w = 0;               ///< largest |W| actually used
};

class ProtestEstimator {
 public:
  explicit ProtestEstimator(const Netlist& net, ProtestParams params = {});
  ~ProtestEstimator();
  ProtestEstimator(ProtestEstimator&&) noexcept;

  /// Estimates the signal probability of every node.
  ///
  /// The per-gate structural plan (bounded cones, candidate joining
  /// points) is built lazily on the first evaluation and cached for the
  /// estimator's lifetime: repeated calls — and the incremental path —
  /// pay only the per-tuple conditioning work.  The conditioning-set
  /// selection itself depends on the tuple and is redone per call.
  std::vector<double> signal_probs(std::span<const double> input_probs) const;

  /// Incremental re-estimation for a single-coordinate perturbation:
  /// `base_node_probs` must be the vector this estimator returned for
  /// `base_inputs` (any entry point); the result is the estimate for the
  /// tuple with input `input_index` changed to `new_p`, and only gates in
  /// the changed input's transitive fanout cone are re-evaluated.
  ///
  /// PerturbMode::Exact re-selects each touched gate's conditioning set —
  /// the result equals signal_probs() on the perturbed tuple bit for bit.
  /// Those sets are scratch: the estimator keeps the selection of its
  /// last full evaluation (signal_probs(), or a batch's element 0).
  /// PerturbMode::FrozenSelection evaluates under the sets selected at the
  /// base tuple: the result is bit-for-bit what
  /// signal_probs_batch({base, perturbed}) returns for the perturbed
  /// element, at a fraction of the cost — the neighborhood-screening
  /// fidelity.  It reuses the kept selection when the last full
  /// evaluation was at `base_inputs` (exact perturbs in between do not
  /// matter), and otherwise re-selects netlist-wide first.  stats() is
  /// not updated by this path.
  std::vector<double> signal_probs_perturb(
      std::span<const double> base_inputs,
      std::span<const double> base_node_probs, std::size_t input_index,
      double new_p, PerturbMode mode = PerturbMode::Exact) const;

  /// Batched estimation: one probability vector per input tuple.
  ///
  /// The expensive per-gate structure work — bounded-cone discovery,
  /// candidate joining points, and the covariance-scored selection of the
  /// conditioning set W — is performed once, on the first tuple, and reused
  /// for every subsequent tuple; only the conditional re-propagation of
  /// formula (2) runs per tuple.  Element 0 therefore equals
  /// signal_probs(batch[0]) exactly, while later elements condition on the
  /// W chosen at batch[0].  This is the intended semantics for
  /// neighbor-tuple workloads (the hill climber evaluates hundreds of
  /// perturbations of one operating point per sweep); for unrelated tuples
  /// call signal_probs() per tuple instead.
  std::vector<std::vector<double>> signal_probs_batch(
      std::span<const InputProbs> batch) const;

  /// Statistics of the most recent signal_probs() run.
  const ProtestStats& stats() const { return stats_; }

  const ProtestParams& params() const { return params_; }
  const Netlist& netlist() const { return net_; }

 private:
  class Evaluator;
  Evaluator& evaluator() const;  ///< builds the plan on first use

  const Netlist& net_;
  ProtestParams params_;
  mutable ProtestStats stats_;
  mutable std::unique_ptr<Evaluator> evaluator_;  ///< cached per-netlist plan
};

}  // namespace protest
