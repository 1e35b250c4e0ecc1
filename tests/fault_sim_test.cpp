// Fault simulator vs a brute-force reference on small circuits, plus mode
// semantics (count vs first-detection with dropping).
#include <gtest/gtest.h>

#include <array>
#include <span>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "netlist/builder.hpp"
#include "sim/fault_sim.hpp"
#include "sim/logic_sim.hpp"

namespace protest {
namespace {

/// Per-pattern reference: does pattern `in` detect fault f?
bool detects(const Netlist& net, const Fault& f, const std::vector<bool>& in) {
  const auto good = simulate_single(net, in);
  std::vector<bool> bad(net.size());
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < in.size(); ++i) bad[inputs[i]] = in[i];
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    if (g.type != GateType::Input) {
      std::array<bool, 64> ins{};
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        bool v = bad[g.fanin[k]];
        if (!f.is_stem() && f.node == n && static_cast<int>(k) == f.pin)
          v = f.sa == StuckAt::One;
        ins[k] = v;
      }
      bad[n] = eval_gate(g.type,
                         std::span<const bool>(ins.data(), g.fanin.size()));
    }
    if (f.is_stem() && f.node == n) bad[n] = f.sa == StuckAt::One;
  }
  for (NodeId o : net.outputs())
    if (good[o] != bad[o]) return true;
  return false;
}

void check_against_reference(const Netlist& net, const PatternSet& ps) {
  const auto faults = full_fault_list(net);
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  ASSERT_EQ(res.detect_count.size(), faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    std::uint64_t count = 0;
    std::int64_t first = -1;
    for (std::size_t p = 0; p < ps.num_patterns(); ++p) {
      std::vector<bool> in(ps.num_inputs());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = ps.get(p, i);
      if (detects(net, faults[fi], in)) {
        ++count;
        if (first < 0) first = static_cast<std::int64_t>(p);
      }
    }
    EXPECT_EQ(res.detect_count[fi], count) << to_string(net, faults[fi]);
    EXPECT_EQ(res.first_detect[fi], first) << to_string(net, faults[fi]);
  }
}

TEST(FaultSim, MatchesBruteForceOnC17Exhaustive) {
  const Netlist net = make_c17();
  check_against_reference(net, PatternSet::exhaustive(5));
}

TEST(FaultSim, MatchesBruteForceOnRandomCircuits) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    RandomCircuitParams params;
    params.num_inputs = 6;
    params.num_gates = 30;
    params.seed = seed;
    const Netlist net = make_random_circuit(params);
    check_against_reference(net, PatternSet::random(6, 100, seed + 77));
  }
}

TEST(FaultSim, DropModeAgreesWithCountModeOnCoverage) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::random(5, 200, 5);
  const auto count =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  const auto drop =
      simulate_faults(net, faults, ps, FaultSimMode::FirstDetection);
  EXPECT_EQ(count.coverage(), drop.coverage());
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_EQ(count.first_detect[i], drop.first_detect[i]);
}

TEST(FaultSim, CoverageCurveIsMonotone) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::random(5, 128, 3);
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::FirstDetection);
  double prev = 0.0;
  for (std::size_t n = 1; n <= 128; n *= 2) {
    const double c = res.coverage_at(n);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_EQ(res.coverage_at(129), res.coverage());
}

TEST(FaultSim, UndetectableFaultStaysUndetected) {
  // y = OR(a, NOT(a)) == 1: the output s-a-1 is undetectable.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId y = bld.or2(a, bld.inv(a));
  bld.output(y, "y");
  const Netlist net = bld.build();
  const Fault f{net.find("y"), -1, StuckAt::One};
  const std::vector<Fault> faults{f};
  const auto res = simulate_faults(net, faults, PatternSet::exhaustive(1),
                                   FaultSimMode::CountDetections);
  EXPECT_EQ(res.detect_count[0], 0u);
  EXPECT_EQ(res.first_detect[0], -1);
}

TEST(FaultSim, DetectionProbsNormalized) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::exhaustive(5);
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  const auto probs = res.detection_probs();
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(FaultSim, PartialLastBlockHandled) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  // 70 patterns: the second block has only 6 valid bits.
  const PatternSet ps = PatternSet::random(5, 70, 9);
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_LE(res.detect_count[i], 70u);
    EXPECT_LT(res.first_detect[i], 70);
  }
}

// --- golden bit patterns ----------------------------------------------------

// FNV-1a over 64-bit words, fed byte by byte: the simulator's outputs are
// integers, so these hashes pin every count and first-detect index.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t result_hash(const FaultSimResult& r) {
  Fnv1a h;
  h.add(r.num_patterns);
  h.add(r.detect_count.size());
  for (const std::uint64_t c : r.detect_count) h.add(c);
  h.add(r.first_detect.size());
  for (const std::int64_t f : r.first_detect)
    h.add(static_cast<std::uint64_t>(f));
  return h.value();
}

// Any rewrite of the fault-effect walk must reproduce these bit for bit.
// The pruned runs drop only proven-undetectable faults, whose zero results
// are exact, so they hash to the plain runs' values.
TEST(FaultSim, GoldenBitPatterns) {
  struct Case {
    const char* circuit;
    std::uint64_t count_hash;
    std::uint64_t first_hash;
  };
  const Case cases[] = {
      {"alu", 17783217787462157475u, 367360569995066854u},
      {"mult", 14695322259197536416u, 6329620820987916427u},
      {"div", 13695613916779790895u, 8683000119056833217u},
  };
  for (const Case& c : cases) {
    const Netlist net = make_circuit(c.circuit);
    const std::vector<Fault> faults = structural_fault_list(net);
    const PatternSet ps = PatternSet::random(net.inputs().size(), 512, 1985);
    const FaultAnalysis fa = analyze_faults(net, faults);
    for (const FaultSimMode mode :
         {FaultSimMode::CountDetections, FaultSimMode::FirstDetection}) {
      const bool count = mode == FaultSimMode::CountDetections;
      const std::uint64_t want = count ? c.count_hash : c.first_hash;
      const char* what = count ? " count" : " first";
      EXPECT_EQ(result_hash(simulate_faults(net, faults, ps, mode)), want)
          << c.circuit << what;
      EXPECT_EQ(
          result_hash(simulate_faults_pruned(net, faults, ps, mode, fa)), want)
          << c.circuit << what << " pruned";
    }
  }
}

}  // namespace
}  // namespace protest
