#include "optimize/hill_climb.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "util/cancel.hpp"

namespace protest {
namespace {

double grid_value(int k, unsigned den) {
  return static_cast<double>(k) / static_cast<double>(den);
}

struct Climber {
  const ObjectiveEvaluator& eval;
  const HillClimbOptions& opts;
  std::size_t evaluations = 0;

  double objective(std::span<const double> x) {
    ++evaluations;
    return eval.log_objective(x);
  }

  /// Climbs from `k` (grid indices per input); returns sweeps used.
  ///
  /// Each coordinate's neighborhood — the current point plus every
  /// in-range geometric step — goes through the evaluator's incremental
  /// path: the current point is analyzed exactly once (a session cache
  /// hit while it doesn't move) and each candidate is a screening
  /// perturb (AnalysisSession::perturb_screen) that re-evaluates only that
  /// coordinate's fanout cone under the conditioning sets selected at the
  /// current point.
  ///
  /// Screening values under the current point's conditioning sets are
  /// approximate, so an accepted move is not guaranteed to improve the
  /// exact objective.  The climb therefore re-scores its start and each
  /// sweep's endpoint with exact evaluations and returns the best
  /// exactly-scored point — the result can never be worse than the
  /// starting point.
  unsigned climb(std::vector<int>& k, double& best) {
    const unsigned den = opts.grid_denominator;
    const std::size_t ni = k.size();
    std::vector<double> x(ni);
    for (std::size_t i = 0; i < ni; ++i) x[i] = grid_value(k[i], den);
    std::vector<int> best_k = k;
    double best_obj = objective(x);

    // Geometric neighbor steps: long jumps first, then refinement.
    std::vector<int> steps;
    for (int s = static_cast<int>(den) / 2; s >= 1; s /= 2) {
      steps.push_back(s);
      steps.push_back(-s);
    }

    std::vector<double> cand_vals;
    std::vector<int> cand_k;
    unsigned sweep = 0;
    for (; sweep < opts.max_sweeps; ++sweep) {
      bool improved = false;
      for (std::size_t i = 0; i < ni; ++i) {
        // Cancellation checkpoint per coordinate: a cancelled optimize
        // job abandons the climb well within one sweep (the accepted
        // moves so far are simply discarded by the unwind).
        check_cancelled();
        const int cur = k[i];
        cand_vals.clear();
        cand_k.clear();
        for (int s : steps) {
          const int cand = cur + s;
          if (cand < 1 || cand > static_cast<int>(den) - 1) continue;
          cand_vals.push_back(grid_value(cand, den));
          cand_k.push_back(cand);
        }
        const ObjectiveEvaluator::NeighborhoodObjectives nb =
            eval.log_objectives_neighborhood(x, i, cand_vals);
        evaluations += cand_vals.size() + 1;
        int kept = cur;
        double best_here = nb.base;
        for (std::size_t c = 0; c < cand_k.size(); ++c) {
          if (nb.candidates[c] > best_here) {
            best_here = nb.candidates[c];
            kept = cand_k[c];
          }
        }
        k[i] = kept;
        x[i] = grid_value(kept, den);
        if (kept != cur) improved = true;
      }
      if (!improved) break;
      const double exact = objective(x);
      if (exact > best_obj) {
        best_obj = exact;
        best_k = k;
      }
    }
    k = best_k;
    best = best_obj;
    return sweep;
  }
};

}  // namespace

HillClimbResult optimize_input_probs(const ObjectiveEvaluator& evaluator,
                                     HillClimbOptions opts) {
  const unsigned den = opts.grid_denominator;
  if (den < 2) throw std::invalid_argument("hill climb: grid denominator < 2");
  const std::size_t ni = evaluator.netlist().inputs().size();

  Climber climber{evaluator, opts};
  std::vector<int> k(ni, static_cast<int>(den) / 2);  // start at ~0.5
  double best;
  unsigned sweeps = climber.climb(k, best);
  std::vector<int> best_k = k;
  double best_obj = best;

  std::mt19937_64 rng(opts.seed);
  std::uniform_int_distribution<int> dist(1, static_cast<int>(den) - 1);
  for (unsigned r = 0; r < opts.restarts; ++r) {
    for (std::size_t i = 0; i < ni; ++i) k[i] = dist(rng);
    double obj;
    sweeps += climber.climb(k, obj);
    if (obj > best_obj) {
      best_obj = obj;
      best_k = k;
    }
  }

  HillClimbResult res;
  res.probs.resize(ni);
  for (std::size_t i = 0; i < ni; ++i) res.probs[i] = grid_value(best_k[i], den);
  res.log_objective = best_obj;
  res.evaluations = climber.evaluations;
  res.sweeps = sweeps;
  return res;
}

HillClimbResult optimize_input_probs(const AnalysisSession& session,
                                     std::uint64_t n_parameter,
                                     HillClimbOptions opts) {
  const SessionOptions& so = session.options();
  const ObjectiveEvaluator eval(session.engine_ptr(), session.faults(),
                                n_parameter, so.observability, so.parallel);
  return optimize_input_probs(eval, opts);
}

}  // namespace protest
