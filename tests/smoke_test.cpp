// End-to-end smoke: the full PROTEST pipeline on c17.
#include <gtest/gtest.h>

#include "circuits/iscas.hpp"
#include "protest/session.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"

namespace protest {
namespace {

TEST(Smoke, FullPipelineOnC17) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult report = session.analyze(uniform_input_probs(net, 0.5));
  ASSERT_EQ(report.signal_probs().size(), net.size());
  ASSERT_EQ(report.detection_probs().size(), session.faults().size());
  for (double p : report.signal_probs()) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  const std::uint64_t n = report.test_length(1.0, 0.95);
  EXPECT_GT(n, 0u);
  EXPECT_LT(n, 10'000u);

  const PatternSet ps = PatternSet::weighted(report.input_probs(), 256, 42);
  const FaultSimResult sim = simulate_faults(net, session.faults(), ps,
                                             FaultSimMode::FirstDetection);
  EXPECT_GT(sim.coverage(), 0.95);
}

}  // namespace
}  // namespace protest
