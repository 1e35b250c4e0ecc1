// Side-by-side comparison of testability measures on the SN74181 ALU —
// the sect. 4 story: probabilistic estimates (PROTEST, STAFAN) track the
// simulated detection probabilities; the combinatorial SCOAP numbers,
// squeezed through the [AgMe82] transformation, do not.
#include <cstdio>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "circuits/zoo.hpp"
#include "measures/scoap.hpp"
#include "measures/stafan.hpp"
#include "observe/miter.hpp"
#include "protest/session.hpp"
#include "sim/fault_sim.hpp"

int main() {
  using namespace protest;
  const Netlist net = make_circuit("alu");
  AnalysisSession session(net);
  const auto& faults = session.faults();

  // Ground truth: exhaustive fault simulation (exact for 14 inputs).
  const PatternSet all = PatternSet::exhaustive(net.inputs().size());
  const auto psim =
      simulate_faults(net, faults, all, FaultSimMode::CountDetections)
          .detection_probs();

  // Contenders.
  const AnalysisResult report = session.analyze(uniform_input_probs(net, 0.5));
  const std::vector<double>& pprotest = report.detection_probs();
  const auto scoap = compute_scoap(net);
  const auto pscoap = pscoap_detection_probs(net, faults, scoap);
  const auto stafan = compute_stafan(
      net, PatternSet::random(net.inputs().size(), 20'000, 3));
  const auto pstafan = stafan_detection_probs(net, faults, stafan);

  TextTable t({"measure", "correlation with P_SIM", "mean |error|"});
  auto add = [&](const char* name, const std::vector<double>& est) {
    const ErrorStats s = compare_estimates(est, psim);
    t.add_row({name, fmt(s.correlation, 3), fmt(s.mean_abs_error, 3)});
  };
  add("PROTEST estimate", pprotest);
  add("STAFAN [AgJa84]", pstafan);
  add("P_SCOAP [AgMe82]", pscoap);
  std::printf("SN74181 ALU, %zu faults, exhaustive P_SIM\n\n%s", faults.size(),
              t.str().c_str());

  // Drill into a handful of faults, including the exact miter oracle.
  std::printf("\nper-fault view (first gate of the carry chain):\n");
  TextTable d({"fault", "P_SIM", "PROTEST", "STAFAN", "P_SCOAP", "exact miter"});
  const auto ip = uniform_input_probs(net, 0.5);
  int shown = 0;
  for (std::size_t i = 0; i < faults.size() && shown < 6; ++i) {
    if (psim[i] <= 0.0 || psim[i] > 0.05) continue;  // the interesting tail
    ++shown;
    d.add_row({to_string(net, faults[i]), fmt(psim[i], 4),
               fmt(pprotest[i], 4), fmt(pstafan[i], 4),
               fmt(pscoap[i], 4),
               fmt(exact_detection_prob_bdd(net, faults[i], ip), 4)});
  }
  std::printf("%s", d.str().c_str());
  std::printf("\nnote how the probabilistic measures follow P_SIM into the "
              "hard tail while P_SCOAP's scale is unrelated.\n");
  return 0;
}
