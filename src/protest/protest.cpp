#include "protest/protest.hpp"

#include "optimize/objective.hpp"
#include "protest/service.hpp"

namespace protest {
namespace {

ProtestReport report_from(const AnalysisResult& result) {
  ProtestReport r;
  r.engine = std::string(result.engine());
  r.input_probs = result.input_probs();
  r.signal_probs = result.signal_probs();
  r.observability = result.observability();
  r.detection_probs = result.detection_probs();
  return r;
}

}  // namespace

Protest::Protest(const Netlist& net, ProtestOptions opts) {
  // The facade is a single-netlist client of the service layer: its
  // session lives in a private registry under the name "default", runs on
  // the service's shared executor, and `net` stays caller-owned (external
  // registration — no copy, netlist() identity preserved).
  ServiceConfig cfg;
  cfg.parallel = opts.parallel;
  service_ = std::make_unique<ProtestService>(std::move(cfg));
  service_->registry().register_external("default", net, std::move(opts));
  session_ = service_->registry().open("default");
}

Protest::~Protest() = default;
Protest::Protest(Protest&&) noexcept = default;

ProtestReport Protest::analyze(std::span<const double> input_probs) const {
  return report_from(session_->analyze(input_probs));
}

std::vector<ProtestReport> Protest::analyze_batch(
    std::span<const InputProbs> input_tuples) const {
  std::vector<ProtestReport> reports;
  reports.reserve(input_tuples.size());
  for (const AnalysisResult& r : session_->analyze_batch(input_tuples))
    reports.push_back(report_from(r));
  return reports;
}

std::uint64_t Protest::test_length(const ProtestReport& report, double d,
                                   double e) const {
  return required_test_length(report.detection_probs, d, e);
}

HillClimbResult Protest::optimize(std::uint64_t n_parameter,
                                  HillClimbOptions opts) const {
  // The evaluator shares the facade session's engine (engines are safe
  // for concurrent calls), so its plan is built once for both.
  const ObjectiveEvaluator eval(session_->engine_ptr(), session_->faults(),
                                n_parameter, options().observability,
                                options().parallel);
  return optimize_input_probs(eval, opts);
}

PatternSet Protest::generate_patterns(std::span<const double> input_probs,
                                      std::size_t num_patterns,
                                      std::uint64_t seed) const {
  return PatternSet::weighted(input_probs, num_patterns, seed);
}

FaultSimResult Protest::fault_simulate(const PatternSet& ps,
                                       FaultSimMode mode) const {
  return simulate_faults(netlist(), faults(), ps, mode);
}

}  // namespace protest
