// Ablation study of the design choices DESIGN.md calls out:
//
//  (a) MAXVERS (number of conditioned joining points) — accuracy vs cost
//      of the sect. 2 estimator, swept on the ALU against the exact
//      (enumerated) signal probabilities;
//  (b) MAXLIST (search depth) at fixed MAXVERS;
//  (c) stem model A (xor-chain) vs B (or-chain) and the gate-transfer
//      models on detection-probability accuracy;
//  (d) the "considerable computing time" exact-transform option (estimator
//      on the fault miter) vs the linear signal-flow model.
#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "circuits/zoo.hpp"
#include "observe/detect.hpp"
#include "observe/miter.hpp"
#include "prob/engine.hpp"
#include "prob/exact.hpp"
#include "prob/naive.hpp"

namespace protest {
namespace {

void sweep_maxvers(const Netlist& net, const std::vector<double>& exact) {
  std::printf("\n(a) MAXVERS sweep on ALU signal probabilities (MAXLIST = 12)\n");
  TextTable t({"MAXVERS", "mean |err|", "max |err|", "time (s)",
               "gates conditioned"});
  const auto ip = uniform_input_probs(net, 0.5);
  for (unsigned mv : {0u, 1u, 2u, 4u, 6u, 8u}) {
    ProtestParams params;
    params.maxvers = mv;
    const ProtestEngine est(net, params);
    std::vector<double> probs;
    const double secs = bench::time_seconds([&] { probs = est.signal_probs(ip); });
    double mean = 0, mx = 0;
    for (NodeId n = 0; n < net.size(); ++n) {
      const double e = std::abs(probs[n] - exact[n]);
      mean += e;
      mx = std::max(mx, e);
    }
    mean /= static_cast<double>(net.size());
    t.add_row({std::to_string(mv), fmt(mean, 5), fmt(mx, 4), fmt(secs, 4),
               std::to_string(est.stats().gates_conditioned)});
  }
  std::printf("%s", t.str().c_str());
}

void sweep_maxlist(const Netlist& net, const std::vector<double>& exact) {
  std::printf("\n(b) MAXLIST sweep on ALU signal probabilities (MAXVERS = 4)\n");
  TextTable t({"MAXLIST", "mean |err|", "max |err|", "time (s)"});
  const auto ip = uniform_input_probs(net, 0.5);
  for (unsigned ml : {1u, 2u, 4u, 8u, 12u, 0u}) {
    ProtestParams params;
    params.maxlist = ml;
    const ProtestEngine est(net, params);
    std::vector<double> probs;
    const double secs = bench::time_seconds([&] { probs = est.signal_probs(ip); });
    double mean = 0, mx = 0;
    for (NodeId n = 0; n < net.size(); ++n) {
      const double e = std::abs(probs[n] - exact[n]);
      mean += e;
      mx = std::max(mx, e);
    }
    mean /= static_cast<double>(net.size());
    t.add_row({ml == 0 ? "unbounded" : std::to_string(ml), fmt(mean, 5),
               fmt(mx, 4), fmt(secs, 4)});
  }
  std::printf("%s", t.str().c_str());
}

void sweep_observability(const Netlist& net) {
  std::printf("\n(c) observability models vs exhaustive P_SIM (ALU)\n");
  const PatternSet all = PatternSet::exhaustive(net.inputs().size());
  const auto psim = simulate_faults(net, structural_fault_list(net), all,
                                    FaultSimMode::CountDetections)
                        .detection_probs();
  TextTable t({"stem model", "transfer", "corr", "mean |err|", "signed bias"});
  for (auto stem : {StemModel::XorChain, StemModel::OrChain})
    for (auto tr : {TransferModel::PaperArithmetic, TransferModel::BooleanDifference}) {
      SessionOptions o;
      o.observability.stem = stem;
      o.observability.transfer = tr;
      AnalysisSession session(net, o);
      const AnalysisResult rep = session.analyze(uniform_input_probs(net, 0.5));
      const ErrorStats s = compare_estimates(rep.detection_probs(), psim);
      t.add_row({stem == StemModel::XorChain ? "A (xor-chain)" : "B (or-chain)",
                 tr == TransferModel::PaperArithmetic ? "paper" : "bool-diff",
                 fmt(s.correlation, 3), fmt(s.mean_abs_error, 3),
                 fmt(s.mean_signed_error, 3)});
    }
  std::printf("%s", t.str().c_str());
  std::printf("(on these TTL-style netlists paper == bool-diff; the stem "
              "model is the lever)\n");
}

void miter_option_on(const char* name, std::size_t stride) {
  const Netlist net = make_circuit(name);
  AnalysisSession session(net);
  const std::vector<Fault>& faults = session.faults();
  const PatternSet all = PatternSet::exhaustive(net.inputs().size());
  const auto psim =
      simulate_faults(net, faults, all, FaultSimMode::CountDetections)
          .detection_probs();
  const auto ip = uniform_input_probs(net, 0.5);

  // Signal-flow model (linear).
  AnalysisResult rep;
  const double t_flow =
      bench::time_seconds([&] { rep = session.analyze(ip); });
  const ErrorStats s_flow = compare_estimates(rep.detection_probs(), psim);

  // Miter transform (quadratic), sampled, at two conditioning budgets.
  TextTable t({"method", "faults", "corr", "mean |err|", "time (s)"});
  t.add_row({"signal flow (sect. 3)", std::to_string(faults.size()),
             fmt(s_flow.correlation, 3), fmt(s_flow.mean_abs_error, 3),
             fmt(t_flow, 3)});
  for (unsigned mv : {4u, 10u}) {
    ProtestParams params;
    params.maxvers = mv;
    params.max_candidates = 48;
    std::vector<double> est_m, sim_m;
    const double t_miter = bench::time_seconds([&] {
      for (std::size_t i = 0; i < faults.size(); i += stride) {
        est_m.push_back(
            estimated_detection_prob_miter(net, faults[i], ip, params));
        sim_m.push_back(psim[i]);
      }
    });
    const ErrorStats s = compare_estimates(est_m, sim_m);
    t.add_row({"miter estimator, MAXVERS=" + std::to_string(mv),
               std::to_string(est_m.size()), fmt(s.correlation, 3),
               fmt(s.mean_abs_error, 3), fmt(t_miter, 3)});
  }
  std::printf("\n%s:\n%s", name, t.str().c_str());
}

void miter_option() {
  std::printf("\n(d) exact-transform option: estimator on the fault miter\n");
  miter_option_on("c17", 1);
  miter_option_on("alu", 8);
  std::printf(
      "finding: the miter doubles the circuit and correlates every node with\n"
      "its twin; on reconvergence-dense logic (ALU) the bounded conditioning\n"
      "cannot keep up and the quadratic option is *worse* than the linear\n"
      "signal-flow model — matching the paper's remark that the transform\n"
      "\"is not appropriate for all applications\" (it is exact on c17).\n");
}

}  // namespace
}  // namespace protest

int main() {
  using namespace protest;
  bench::print_header("Ablations: estimator and observability design choices");
  const Netlist alu = make_circuit("alu");
  const auto exact =
      exact_signal_probs_enum(alu, uniform_input_probs(alu, 0.5));
  sweep_maxvers(alu, exact);
  sweep_maxlist(alu, exact);
  sweep_observability(alu);
  miter_option();
  return 0;
}
