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
// Thread safety: an estimator keeps no state between calls.  The
// per-netlist plan is built once, on first use, and is immutable after;
// evaluation scratch is allocated per call; the conditioning sets a
// tuple selects travel with its result (Evaluation::selection).  So one
// estimator may serve any number of concurrent callers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "netlist/cone.hpp"
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

/// The conditioning sets W one evaluation chose, one per planned gate:
/// candidate indices, ascending.  A gate holds at most width() of them.
class Selection {
 public:
  Selection(std::size_t gates, std::size_t width)
      : width_(width), size_(gates, 0), slots_(gates * width, 0) {}

  std::size_t gates() const { return size_.size(); }
  std::size_t width() const { return width_; }
  std::span<const std::uint32_t> of(std::size_t gate) const {
    return std::span<const std::uint32_t>(slots_).subspan(gate * width_,
                                                          size_[gate]);
  }
  /// Replaces gate's set; w.size() <= width().
  void set(std::size_t gate, std::span<const std::uint32_t> w) {
    const auto slot =
        slots_.begin() + static_cast<std::ptrdiff_t>(gate * width_);
    std::fill(std::copy(w.begin(), w.end(), slot),
              slot + static_cast<std::ptrdiff_t>(width_), 0u);
    size_[gate] = static_cast<std::uint32_t>(w.size());
  }

  bool operator==(const Selection&) const = default;

 private:
  std::size_t width_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> slots_;  ///< unused slots stay 0
};

class ProtestEstimator {
 public:
  explicit ProtestEstimator(const Netlist& net, ProtestParams params = {});
  ~ProtestEstimator();

  /// Estimates the signal probability of every node and returns the
  /// conditioning sets it selected for this tuple.
  ///
  /// The per-gate structural plan (bounded cones, candidate joining
  /// points) is built on the first evaluation and shared by every later
  /// call: repeated calls, and the incremental paths, pay only the
  /// per-tuple conditioning work.
  Evaluation evaluate(std::span<const double> input_probs) const;

  /// evaluate(input_probs).probs.
  std::vector<double> signal_probs(std::span<const double> input_probs) const;

  /// Exact incremental re-estimation for a single-coordinate
  /// perturbation: `base` must be what this estimator returned for
  /// `base_inputs` (evaluate() or perturb()).  Only gates in the changed
  /// input's transitive fanout cone are re-evaluated, and each re-selects
  /// its conditioning set.  The result equals evaluate() on the perturbed
  /// tuple bit for bit, Selection included: the base's sets with those of
  /// the re-evaluated gates replaced.
  Evaluation perturb(std::span<const double> base_inputs,
                     const Evaluation& base, std::size_t input_index,
                     double new_p) const;

  /// Screening re-estimation for neighborhood sweeps: like perturb(), but
  /// every gate conditions on the sets in `base.selection` — bit for bit
  /// evaluate_under(perturbed tuple, *base.selection), at eval-only cost
  /// over the changed input's fanout cone.
  std::vector<double> screen(std::span<const double> base_inputs,
                             const Evaluation& base, std::size_t input_index,
                             double new_p) const;

  /// Full evaluation of `input_probs` conditioning every gate on the sets
  /// in `selection` instead of selecting its own: the reference that
  /// screen() reproduces incrementally.
  std::vector<double> evaluate_under(std::span<const double> input_probs,
                                     const Selection& selection) const;

  /// Statistics of the most recent evaluate() (by value: other threads may
  /// be evaluating).
  ProtestStats stats() const;

  const ProtestParams& params() const { return params_; }
  const Netlist& netlist() const { return net_; }

 private:
  struct Plan;
  class Kernel;
  const Plan& plan() const;  ///< built on first use, exactly once
  /// *selection, after checking it is shaped for this plan (throws
  /// std::invalid_argument when null or made by another estimator).
  const Selection& checked(const Selection* selection) const;

  const Netlist& net_;
  ProtestParams params_;
  mutable std::once_flag plan_once_;
  mutable std::unique_ptr<const Plan> plan_;
  InputFanoutCones fanout_cones_;  ///< incremental work lists
  mutable std::mutex stats_mu_;
  mutable ProtestStats stats_;
};

}  // namespace protest
