// Common vocabulary for signal-probability computation.  All engines map a
// tuple of primary-input probabilities <p_i | i in I> to per-node signal
// probabilities p_k = P(node k evaluates to 1) — the quantity of sect. 2.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace protest {

/// One probability per primary input, in netlist input order.
using InputProbs = std::vector<double>;

class Selection;  // prob/protest_estimator.hpp

/// One exact evaluation: per-node probabilities plus the tuple-dependent
/// choice behind them.  `selection` holds the PROTEST engine's
/// conditioning sets and is null for engines that choose nothing per tuple
/// (naive, BDD, enumeration, Monte-Carlo).  A perturb or screen of this
/// tuple takes the whole Evaluation as its base.
struct Evaluation {
  std::vector<double> probs;
  std::shared_ptr<const Selection> selection;
};

/// The conventional tuple: every input stimulated with P(1) = p (paper
/// sect. 5 uses p = 0.5 for the "not optimized" columns).
InputProbs uniform_input_probs(const Netlist& net, double p = 0.5);

/// Throws std::invalid_argument unless probs matches the input count and
/// every entry lies in [0,1].
void validate_input_probs(const Netlist& net, std::span<const double> probs);

/// The perturb-argument contract shared by every incremental entry point
/// (engine and estimator): valid base tuple, netlist-sized base node
/// probabilities, in-range input index, probability in [0,1].  Throws
/// std::invalid_argument.
void validate_perturb_args(const Netlist& net,
                           std::span<const double> base_inputs,
                           std::span<const double> base_node_probs,
                           std::size_t input_index, double new_p);

}  // namespace protest
