#include "optimize/objective.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace protest {
namespace {

/// The evaluator's state lives in its session: one fault-list copy, one
/// engine handle, the observability options in SessionOptions.
AnalysisSession make_evaluator_session(
    std::shared_ptr<const SignalProbEngine> engine, std::vector<Fault> faults,
    ObservabilityOptions obs_opts, ParallelConfig parallel) {
  if (!engine) throw std::invalid_argument("ObjectiveEvaluator: null engine");
  SessionOptions opts;
  opts.observability = obs_opts;
  opts.parallel = parallel;
  const Netlist& net = engine->netlist();
  return AnalysisSession(net, std::move(engine), std::move(faults),
                         std::move(opts));
}

AnalysisRequest detection_request() {
  AnalysisRequest req;
  req.observability = false;  // still computed, as a detection dependency
  req.detection_probs = true;
  return req;
}

}  // namespace

ObjectiveEvaluator::ObjectiveEvaluator(
    std::shared_ptr<const SignalProbEngine> engine, std::vector<Fault> faults,
    std::uint64_t n_parameter, ObservabilityOptions obs_opts,
    ParallelConfig parallel)
    : n_(n_parameter),
      session_(make_evaluator_session(std::move(engine), std::move(faults),
                                      obs_opts, parallel)) {}

ObjectiveEvaluator::ObjectiveEvaluator(const Netlist& net,
                                       std::vector<Fault> faults,
                                       std::uint64_t n_parameter,
                                       ProtestParams params,
                                       ObservabilityOptions obs_opts,
                                       ParallelConfig parallel)
    : ObjectiveEvaluator(std::make_shared<ProtestEngine>(net, params),
                         std::move(faults), n_parameter, obs_opts, parallel) {}

std::vector<double> ObjectiveEvaluator::detection_probs(
    std::span<const double> input_probs) const {
  return session_.analyze(input_probs, detection_request()).detection_probs();
}

double ObjectiveEvaluator::log_objective_from_probs(
    std::span<const double> probs) const {
  // Detection probabilities are floored at a tiny epsilon so that circuits
  // with (estimated) undetectable faults still give the climber a finite,
  // comparable objective instead of a flat -inf plateau.
  constexpr double kFloor = 1e-15;
  double acc = 0.0;
  for (double p : probs) {
    p = std::max(p, kFloor);
    if (p >= 1.0) continue;
    const double miss_log = static_cast<double>(n_) * std::log1p(-p);
    acc += miss_log < -745.0 ? 0.0 : std::log1p(-std::exp(miss_log));
  }
  return acc;
}

double ObjectiveEvaluator::log_objective(
    std::span<const double> input_probs) const {
  return log_objective_from_probs(detection_probs(input_probs));
}

ObjectiveEvaluator::NeighborhoodObjectives
ObjectiveEvaluator::log_objectives_neighborhood(
    std::span<const double> base, std::size_t coord,
    std::span<const double> values) const {
  const AnalysisResult base_result =
      session_.analyze(base, detection_request());
  NeighborhoodObjectives out;
  out.base = log_objective_from_probs(base_result.detection_probs());
  // One sweep call: candidates (signal probs + observability + detection)
  // fan out across the session's executor when parallelism is configured;
  // detection_probs() below is a memoized read either way.
  const std::vector<AnalysisResult> screened =
      session_.perturb_screen_sweep(base_result, coord, values);
  out.candidates.reserve(values.size());
  for (const AnalysisResult& r : screened)
    out.candidates.push_back(log_objective_from_probs(r.detection_probs()));
  return out;
}

}  // namespace protest
