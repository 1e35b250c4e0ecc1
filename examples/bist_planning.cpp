// Self-test (BIST) planning — the sect. 8 application: "the optimal input
// signal probabilities calculated by PROTEST are used to design non-linear
// feedback shift registers (NLFSR), which generate such optimal pattern
// sequences ... reaching a higher fault detection probability in shorter
// test time" than a conventional BILBO.
//
// For the 24-bit comparator we compare, at equal pattern budget:
//   * BILBO-style uniform LFSR patterns (p = 0.5 everywhere), vs
//   * an NLFSR-modelled weighted generator programmed with PROTEST's
//     optimized k/16 weights.
#include <cstdio>

#include "analysis/table.hpp"
#include "circuits/zoo.hpp"
#include "optimize/hill_climb.hpp"
#include "optimize/weighted_patterns.hpp"
#include "protest/session.hpp"
#include "sim/fault_sim.hpp"

int main() {
  using namespace protest;
  const Netlist net = make_circuit("comp");
  SessionOptions popts;
  popts.universe = FaultUniverse::Collapsed;
  const AnalysisSession session(net, popts);
  const std::vector<Fault>& faults = session.faults();
  std::printf("device under self-test: 24-bit cascaded comparator "
              "(%zu gates, %zu collapsed faults)\n",
              net.num_gates(), faults.size());

  // 1. PROTEST proposes per-input weights (hill climbing on J_N).
  HillClimbOptions hopts;
  hopts.max_sweeps = 4;
  const HillClimbResult opt = optimize_input_probs(session, 10'000, hopts);
  const auto weights = weights_from_probs(opt.probs, 16);
  std::printf("\noptimized weights (k of k/16):");
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (i % 12 == 0) std::printf("\n  ");
    std::printf("%s=%u ", net.name_of(net.inputs()[i]).c_str(), weights[i]);
  }
  std::printf("\n");

  // 2. Hardware model: one LFSR; each weighted bit derived from 4 stages
  //    through a threshold compare (the NLFSR of [KuWu84]).
  WeightedLfsrGenerator nlfsr(weights, 16, /*seed=*/0xACE1);
  // BILBO baseline: plain maximal-length LFSR bits, p = 0.5.
  WeightedLfsrGenerator bilbo(std::vector<unsigned>(weights.size(), 8), 16,
                              0xACE1);

  // 3. Equal-budget shoot-out.
  TextTable t({"patterns", "BILBO coverage", "NLFSR coverage"});
  for (std::size_t budget : {1'000u, 4'000u, 12'000u}) {
    const auto cov_b = simulate_faults(net, faults, bilbo.generate(budget),
                                       FaultSimMode::FirstDetection);
    const auto cov_n = simulate_faults(net, faults, nlfsr.generate(budget),
                                       FaultSimMode::FirstDetection);
    t.add_row({fmt_int(budget), fmt(100 * cov_b.coverage(), 1) + " %",
               fmt(100 * cov_n.coverage(), 1) + " %"});
  }
  std::printf("\n%s", t.str().c_str());
  std::printf("\nhardware overhead: 4 LFSR taps + one 4-bit comparator per "
              "weighted input — \"minimal hardware overhead compared to the "
              "standard BILBO\" (sect. 8).\n");
  return 0;
}
