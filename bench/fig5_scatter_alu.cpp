// Figure 5: correlation diagram for the ALU — every fault positioned by
// (P_PROT, P_SIM).  The paper's plot hugs the diagonal (C = 0.97).
// Pass --data to dump the raw series instead of the ASCII rendering.
#include <cstring>

#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "circuits/zoo.hpp"

int main(int argc, char** argv) {
  using namespace protest;
  const bool dump = argc > 1 && std::strcmp(argv[1], "--data") == 0;

  const Netlist net = make_circuit("alu");
  AnalysisSession session(net);
  const AnalysisResult report = session.analyze(uniform_input_probs(net, 0.5));
  const PatternSet all = PatternSet::exhaustive(net.inputs().size());
  const auto psim =
      simulate_faults(net, session.faults(), all, FaultSimMode::CountDetections)
          .detection_probs();

  if (dump) {
    std::printf("# P_PROT P_SIM (ALU, one line per fault)\n%s",
                scatter_series(report.detection_probs(), psim).c_str());
    return 0;
  }
  bench::print_header("Fig. 5: correlation diagram for ALU (P_PROT vs P_SIM)");
  const ErrorStats s = compare_estimates(report.detection_probs(), psim);
  std::printf("%s", ascii_scatter(report.detection_probs(), psim).c_str());
  std::printf("\n%zu faults; C = %.3f (paper: 0.97); Delta = %.3f (paper 0.04)\n",
              s.count, s.correlation, s.mean_abs_error);
  std::printf("(run with --data for the raw scatter series)\n");
  return 0;
}
