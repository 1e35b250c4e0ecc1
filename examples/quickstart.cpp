// Quickstart: the whole PROTEST pipeline in ~50 lines.
//
//   ./quickstart [circuit.bench]
//
// Loads a combinational circuit (ISCAS-85 c17 by default), estimates
// signal and fault-detection probabilities, computes the required random
// test length, and validates it by fault simulation.
#include <algorithm>
#include <cstdio>
#include <string>

#include "analysis/table.hpp"
#include "circuits/iscas.hpp"
#include "netlist/bench_io.hpp"
#include "protest/session.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"

int main(int argc, char** argv) {
  using namespace protest;

  const Netlist net =
      argc > 1 ? read_bench_file(argv[1]) : make_c17();
  std::printf("circuit: %zu inputs, %zu outputs, %zu gates\n",
              net.inputs().size(), net.outputs().size(), net.num_gates());

  // 1. Analyze: signal probabilities + detection probability per fault.
  AnalysisSession session(net);
  const AnalysisResult report = session.analyze(uniform_input_probs(net, 0.5));
  const std::vector<Fault>& faults = session.faults();
  const std::vector<double>& pf = report.detection_probs();

  std::printf("\nsignal probabilities (p = 0.5 at every input):\n");
  for (NodeId n = 0; n < net.size(); ++n)
    if (!net.is_input(n))
      std::printf("  %-8s p1 = %.4f   observability = %.4f\n",
                  net.name_of(n).c_str(), report.signal_probs()[n],
                  report.observability().stem[n]);

  // 2. The hardest faults — the ones random test struggles with.
  std::printf("\nleast testable faults:\n");
  std::vector<std::size_t> order(faults.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return pf[a] < pf[b]; });
  for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i)
    std::printf("  %-14s P_detect = %.4f\n",
                to_string(net, faults[order[i]]).c_str(), pf[order[i]]);

  // 3. Test length for 98% of faults with 98% confidence (paper Table 2).
  const std::uint64_t n = report.test_length(0.98, 0.98);
  std::printf("\nrequired random patterns (d = 0.98, e = 0.98): %s\n",
              fmt_int(n).c_str());

  // 4. Validate by static fault simulation, exactly like the paper.
  const PatternSet ps = PatternSet::weighted(
      report.input_probs(), static_cast<std::size_t>(n), /*seed=*/1);
  const FaultSimResult sim =
      simulate_faults(net, faults, ps, FaultSimMode::FirstDetection);
  std::printf("simulated fault coverage with %s patterns: %.1f %%\n",
              fmt_int(n).c_str(), 100.0 * sim.coverage());
  return 0;
}
