// Hybrid ATPG planning — the second sect. 8 application: "most ATPG first
// use fault simulation by random patterns, and second, when this becomes
// inefficient, they use other procedures like the D-algorithm.  Computing
// time for fault simulation is drastically reduced by using optimized
// pattern sets ... additionally the number of faults which are to be
// treated by the more expensive second procedure decreases."
//
// On the 16-bit divider we (a) predict the random phase's yield from the
// PROTEST estimates, (b) run it, and (c) hand the survivors to the
// "deterministic phase" (here: listed, with their estimated detection
// probabilities as difficulty hints).
#include <algorithm>
#include <cstdio>

#include "analysis/table.hpp"
#include "circuits/zoo.hpp"
#include "optimize/hill_climb.hpp"
#include "protest/session.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"
#include "testlen/test_length.hpp"

int main() {
  using namespace protest;
  const Netlist net = make_circuit("div");
  SessionOptions popts;
  popts.universe = FaultUniverse::Collapsed;
  popts.estimator.maxvers = 2;  // planning only needs coarse estimates
  popts.estimator.maxlist = 8;
  AnalysisSession session(net, popts);
  const std::vector<Fault>& faults = session.faults();
  std::printf("target: 16-bit restoring divider (%zu gates, %zu faults)\n",
              net.num_gates(), faults.size());

  // Plan the random phase: predicted coverage after N uniform patterns.
  const AnalysisResult plan = session.analyze(uniform_input_probs(net, 0.5));
  const std::size_t budget = 4'000;
  std::printf("\npredicted coverage after %zu uniform patterns: %.1f %%\n",
              budget,
              100 * expected_coverage(plan.detection_probs(), budget));

  // Optimized phase: same budget with PROTEST weights.
  HillClimbOptions hopts;
  hopts.max_sweeps = 3;
  const HillClimbResult opt = optimize_input_probs(session, budget, hopts);
  const AnalysisResult plan_opt = session.analyze(opt.probs);
  const std::vector<double>& pf_opt = plan_opt.detection_probs();
  std::printf("predicted coverage with optimized weights:  %.1f %%\n",
              100 * expected_coverage(pf_opt, budget));

  // Execute both random phases.
  const auto run = [&](const std::vector<double>& probs) {
    return simulate_faults(net, faults, PatternSet::weighted(probs, budget, 11),
                           FaultSimMode::FirstDetection);
  };
  const FaultSimResult uniform = run(uniform_input_probs(net, 0.5));
  const FaultSimResult weighted = run(opt.probs);

  TextTable t({"random phase", "coverage", "faults left for D-algorithm"});
  auto survivors = [&](const FaultSimResult& r) {
    std::size_t s = 0;
    for (std::int64_t f : r.first_detect) s += f < 0;
    return s;
  };
  t.add_row({"uniform p=0.5", fmt(100 * uniform.coverage(), 1) + " %",
             fmt_int(survivors(uniform))});
  t.add_row({"PROTEST weights", fmt(100 * weighted.coverage(), 1) + " %",
             fmt_int(survivors(weighted))});
  std::printf("\n%s", t.str().c_str());

  // The deterministic phase gets the survivors, hardest first.
  std::vector<std::size_t> left;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (weighted.first_detect[i] < 0) left.push_back(i);
  std::sort(left.begin(), left.end(), [&](std::size_t a, std::size_t b) {
    return pf_opt[a] < pf_opt[b];
  });
  std::printf("\nhardest survivors handed to the deterministic ATPG:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, left.size()); ++i)
    std::printf("  %-16s estimated P_detect = %.2e\n",
                to_string(net, faults[left[i]]).c_str(), pf_opt[left[i]]);
  return 0;
}
