// The optimizing procedure of sect. 6: "PROTEST includes an optimizing
// procedure which finds a local maximum of J_N.  The procedure works
// according to the hill climbing principle" [Nils80].
//
// Coordinate ascent over a k/denominator probability grid (the paper's
// Table 4 weights all lie on the k/16 grid — hardware weighted-pattern
// generators realize exactly these).  Each coordinate tries geometric
// neighbor steps; sweeps repeat until no move improves.
#pragma once

#include <cstdint>

#include "optimize/objective.hpp"

namespace protest {

struct HillClimbOptions {
  unsigned grid_denominator = 16;  ///< probabilities are k/denominator
  unsigned max_sweeps = 32;        ///< safety bound on full sweeps
};

struct HillClimbResult {
  std::vector<double> probs;  ///< optimized input-probability tuple
  double log_objective = 0.0;
  std::size_t evaluations = 0;
  /// The sweeps that moved the point.  The climb stops at the first sweep
  /// that moves nothing and does not count it, so sweeps < max_sweeps
  /// means the climb converged; sweeps == max_sweeps means it stopped at
  /// the bound.
  unsigned sweeps = 0;
};

/// Maximizes evaluator.log_objective over the grid, starting from the
/// conventional tuple (0.5, ..., 0.5).  Cooperatively cancellable: when
/// the calling thread's CancelToken (util/cancel.hpp) is cancelled, the
/// climb throws OperationCancelled at the next coordinate — well within
/// one sweep — which is how an async `optimize` job stops early.
HillClimbResult optimize_input_probs(const ObjectiveEvaluator& evaluator,
                                     HillClimbOptions opts = {});

/// The same climb on J_N over a session's fault list, evaluated through
/// the session's engine (its plan is built once for both), observability
/// options and parallel configuration.  The session's own result cache is
/// not touched.
HillClimbResult optimize_input_probs(const AnalysisSession& session,
                                     std::uint64_t n_parameter,
                                     HillClimbOptions opts = {});

/// Writes a climb's members into the open object: engine, n_parameter,
/// log_objective, evaluations, sweeps, then optimized_probs ({input, p}
/// per primary input).  `protest optimize --json` and the service's
/// optimize verb both write through it.
void write_hill_climb(JsonWriter& w, const AnalysisSession& session,
                      std::uint64_t n_parameter, const HillClimbResult& res);

}  // namespace protest
