// Scan-path extraction: sequential .bench -> combinational core.
#include <gtest/gtest.h>

#include "netlist/bench_io.hpp"
#include "protest/session.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"
#include "sim/scan.hpp"

namespace protest {
namespace {

// A 2-bit synchronous counter with enable:
//   q0' = q0 XOR en;  q1' = q1 XOR (q0 AND en);  out = q1 AND q0
const char* kCounter = R"(
INPUT(en)
OUTPUT(out)
q0 = DFF(n0)
q1 = DFF(n1)
n0 = XOR(q0, en)
t = AND(q0, en)
n1 = XOR(q1, t)
out = AND(q1, q0)
)";

TEST(Scan, ExtractsCoreStructure) {
  const ScanDesign d = extract_scan_design(kCounter);
  EXPECT_EQ(d.num_primary_inputs, 1u);
  EXPECT_EQ(d.num_primary_outputs, 1u);
  EXPECT_EQ(d.num_flops(), 2u);
  EXPECT_EQ(d.flop_names, (std::vector<std::string>{"q0", "q1"}));
  // Core: 1 PI + 2 pseudo-inputs; 1 PO + 2 pseudo-outputs.
  EXPECT_EQ(d.comb.inputs().size(), 3u);
  EXPECT_EQ(d.comb.outputs().size(), 3u);
}

TEST(Scan, ClockCycleMatchesCounterSemantics) {
  const ScanDesign d = extract_scan_design(kCounter);
  std::vector<bool> state{false, false};  // q0, q1
  unsigned count = 0;
  for (int step = 0; step < 10; ++step) {
    const CycleResult r = clock_cycle(d, {true}, state);
    // Counter semantics: with en=1 the state increments mod 4.
    count = (count + 1) % 4;
    state = r.next_state;
    const unsigned got = unsigned(state[0]) | (unsigned(state[1]) << 1);
    EXPECT_EQ(got, count) << "step " << step;
  }
  // en = 0 holds the state.
  const CycleResult hold = clock_cycle(d, {false}, state);
  EXPECT_EQ(hold.next_state, state);
}

TEST(Scan, OutputReflectsState) {
  const ScanDesign d = extract_scan_design(kCounter);
  const CycleResult r = clock_cycle(d, {false}, {true, true});
  EXPECT_TRUE(r.outputs[0]);  // out = q1 & q0
  const CycleResult r2 = clock_cycle(d, {false}, {true, false});
  EXPECT_FALSE(r2.outputs[0]);
}

TEST(Scan, CombinationalInputPassesThrough) {
  const ScanDesign d = extract_scan_design(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
  EXPECT_EQ(d.num_flops(), 0u);
  EXPECT_EQ(d.comb.inputs().size(), 2u);
  const CycleResult r = clock_cycle(d, {true, true}, {});
  EXPECT_TRUE(r.outputs[0]);
}

TEST(Scan, FullProtestPipelineOnCore) {
  // The paper's whole premise: analyze the scan core like any
  // combinational circuit.
  const ScanDesign d = extract_scan_design(kCounter);
  AnalysisSession session(d.comb);
  const AnalysisResult report =
      session.analyze(uniform_input_probs(d.comb, 0.5));
  const std::uint64_t n = report.test_length(1.0, 0.95);
  EXPECT_LT(n, 1'000u);
  const PatternSet ps = PatternSet::weighted(report.input_probs(), n, 1);
  const auto sim = simulate_faults(d.comb, session.faults(), ps,
                                   FaultSimMode::FirstDetection);
  EXPECT_GT(sim.coverage(), 0.95);
}

TEST(Scan, RejectsMalformedDff) {
  EXPECT_THROW(extract_scan_design("INPUT(a)\nOUTPUT(q)\nq = DFF(a, b)\n"),
               BenchParseError);
  EXPECT_THROW(extract_scan_design("INPUT(a)\nOUTPUT(q)\nq = DFF(\n"),
               BenchParseError);
}

}  // namespace
}  // namespace protest
