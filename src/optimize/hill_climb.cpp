#include "optimize/hill_climb.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/json.hpp"
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

  /// Climbs from `k` (grid indices per input); returns the sweeps that
  /// moved the point (HillClimbResult::sweeps).
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
  HillClimbResult res;
  res.sweeps = climber.climb(k, res.log_objective);
  res.probs.resize(ni);
  for (std::size_t i = 0; i < ni; ++i) res.probs[i] = grid_value(k[i], den);
  res.evaluations = climber.evaluations;
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

void write_hill_climb(JsonWriter& w, const AnalysisSession& session,
                      std::uint64_t n_parameter, const HillClimbResult& res) {
  w.key("engine").value(session.engine().name());
  w.key("n_parameter").value(n_parameter);
  w.key("log_objective").value(res.log_objective);
  w.key("evaluations").value(res.evaluations);
  w.key("sweeps").value(static_cast<std::uint64_t>(res.sweeps));
  w.key("optimized_probs").begin_array();
  const Netlist& net = session.netlist();
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    w.begin_object();
    w.key("input").value(net.name_of(inputs[i]));
    w.key("p").value(res.probs[i]);
    w.end_object();
  }
  w.end_array();
}

}  // namespace protest
