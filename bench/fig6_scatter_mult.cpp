// Figure 6: correlation diagram for MULT.  The paper's plot sits visibly
// *above* the diagonal — "in general P_SIM is higher than P_PROT", the
// systematic under-estimation caused by the simple signal-flow model
// ignoring simultaneous multi-path sensitization.
#include <cstring>

#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "circuits/zoo.hpp"

int main(int argc, char** argv) {
  using namespace protest;
  const bool dump = argc > 1 && std::strcmp(argv[1], "--data") == 0;

  const Netlist net = make_circuit("mult");
  AnalysisSession session(net);
  const AnalysisResult report = session.analyze(uniform_input_probs(net, 0.5));
  const PatternSet ps = PatternSet::random(net.inputs().size(), 100'000, 1985);
  const auto psim =
      simulate_faults(net, session.faults(), ps, FaultSimMode::CountDetections)
          .detection_probs();

  if (dump) {
    std::printf("# P_PROT P_SIM (MULT, one line per fault)\n%s",
                scatter_series(report.detection_probs(), psim).c_str());
    return 0;
  }
  bench::print_header("Fig. 6: correlation diagram for MULT (P_PROT vs P_SIM)");
  const ErrorStats s = compare_estimates(report.detection_probs(), psim);
  std::printf("%s", ascii_scatter(report.detection_probs(), psim).c_str());
  std::printf("\n%zu faults; C = %.3f (paper: 0.90); Delta = %.3f (paper 0.11)\n",
              s.count, s.correlation, s.mean_abs_error);
  std::printf("signed bias (est - sim) = %+.3f -> under-estimation, as in the paper\n",
              s.mean_signed_error);
  std::printf("(run with --data for the raw scatter series)\n");
  return 0;
}
