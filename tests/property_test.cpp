// Parameterized property sweeps: invariants that must hold on whole
// families of random circuits and parameter grids, not just hand-picked
// examples.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "circuits/random_circuit.hpp"
#include "lint/fault_analyze.hpp"
#include "lint/prob_bounds.hpp"
#include "measures/scoap.hpp"
#include "observe/detect.hpp"
#include "prob/exact.hpp"
#include "prob/naive.hpp"
#include "prob/protest_estimator.hpp"
#include "sim/fault_sim.hpp"
#include "sim/logic_sim.hpp"
#include "sim/signature.hpp"
#include "testlen/test_length.hpp"
#include "validate/stats.hpp"

namespace protest {
namespace {

Netlist random_net(std::uint64_t seed, std::size_t inputs = 7,
                   std::size_t gates = 45) {
  RandomCircuitParams p;
  p.num_inputs = inputs;
  p.num_gates = gates;
  p.seed = seed;
  return make_random_circuit(p);
}

// ---------------------------------------------------------------------
// Estimator accuracy is monotone-ish in MAXVERS: more conditioning never
// hurts much (allowing heuristic slack), and MAXVERS=6 beats naive.
class EstimatorParamSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(EstimatorParamSweep, ConditioningBeatsNaive) {
  const auto [seed, maxlist] = GetParam();
  const Netlist net = random_net(static_cast<std::uint64_t>(seed));
  const auto ip = uniform_input_probs(net, 0.5);
  const auto exact = exact_signal_probs_bdd(net, ip);

  auto total_err = [&](unsigned maxvers) {
    ProtestParams params;
    params.maxvers = maxvers;
    params.maxlist = maxlist;
    const auto est = ProtestEstimator(net, params).signal_probs(ip);
    double e = 0;
    for (NodeId n = 0; n < net.size(); ++n) e += std::abs(est[n] - exact[n]);
    return e;
  };
  const double naive_err = total_err(0);
  const double cond_err = total_err(6);
  EXPECT_LE(cond_err, naive_err + 0.05)
      << "maxlist=" << maxlist << ": " << cond_err << " vs " << naive_err;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EstimatorParamSweep,
    ::testing::Combine(::testing::Values(21, 22, 23, 24),
                       ::testing::Values(4u, 12u, 0u)));

// ---------------------------------------------------------------------
// Detection estimates must track exhaustive simulation on random circuits.
class DetectionTracking : public ::testing::TestWithParam<int> {};

TEST_P(DetectionTracking, EstimateCorrelatesWithExhaustiveSim) {
  const Netlist net = random_net(static_cast<std::uint64_t>(GetParam()), 8, 50);
  const auto faults = structural_fault_list(net);
  const auto ip = uniform_input_probs(net, 0.5);
  const ProtestEstimator est(net);
  const auto p = est.signal_probs(ip);
  const auto obs = compute_observability(net, p);
  const auto dp = detection_probs(net, faults, p, obs);
  const auto psim = simulate_faults(net, faults, PatternSet::exhaustive(8),
                                    FaultSimMode::CountDetections)
                        .detection_probs();
  // Pearson over the pairs; random circuits are messy, so the bar is
  // modest — but it must be clearly positive tracking.
  double sx = 0, sy = 0, sxy = 0, sxx = 0, syy = 0;
  const double n = static_cast<double>(dp.size());
  for (std::size_t i = 0; i < dp.size(); ++i) {
    sx += dp[i];
    sy += psim[i];
  }
  const double mx = sx / n, my = sy / n;
  for (std::size_t i = 0; i < dp.size(); ++i) {
    sxy += (dp[i] - mx) * (psim[i] - my);
    sxx += (dp[i] - mx) * (dp[i] - mx);
    syy += (psim[i] - my) * (psim[i] - my);
  }
  ASSERT_GT(sxx, 0.0);
  ASSERT_GT(syy, 0.0);
  EXPECT_GT(sxy / std::sqrt(sxx * syy), 0.6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectionTracking, ::testing::Range(31, 39));

// ---------------------------------------------------------------------
// Static signal-probability intervals contain the exact probability on
// 60-gate random circuits under biased input tuples.
class SignalProbBoundsContainExact : public ::testing::TestWithParam<int> {};

TEST_P(SignalProbBoundsContainExact, UnderBiasedInputs) {
  const Netlist net = random_net(static_cast<std::uint64_t>(GetParam()), 7, 60);
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::uniform_real_distribution<double> uni(0.02, 0.98);
  std::vector<double> ip(7);
  for (double& p : ip) p = uni(rng);
  const auto exact = exact_signal_probs_bdd(net, ip);
  const SignalProbBounds bounds = signal_prob_bounds(net, ip);
  for (NodeId n = 0; n < net.size(); ++n)
    ASSERT_TRUE(exact[n] >= bounds.lo[n] - 1e-12 &&
                exact[n] <= bounds.hi[n] + 1e-12)
        << "node " << n << ": " << exact[n] << " not in [" << bounds.lo[n]
        << "," << bounds.hi[n] << "]";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignalProbBoundsContainExact,
                         ::testing::Range(41, 47));

// ---------------------------------------------------------------------
// Fault-simulation invariants: a pattern cannot detect both polarities of
// the same stem fault, and counts are bounded by the pattern count.
class FaultSimInvariants : public ::testing::TestWithParam<int> {};

TEST_P(FaultSimInvariants, PolarityDisjointAndBounded) {
  const Netlist net = random_net(static_cast<std::uint64_t>(GetParam()), 6, 40);
  std::vector<Fault> faults;
  for (NodeId n = 0; n < net.size(); ++n) {
    faults.push_back({n, -1, StuckAt::Zero});
    faults.push_back({n, -1, StuckAt::One});
  }
  const PatternSet ps = PatternSet::random(6, 512, GetParam());
  const auto res =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  for (std::size_t i = 0; i < faults.size(); i += 2) {
    EXPECT_LE(res.detect_count[i] + res.detect_count[i + 1], 512u)
        << to_string(net, faults[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSimInvariants, ::testing::Range(51, 57));

// ---------------------------------------------------------------------
// Weighted pattern sources realize their probabilities.  The band is the
// Hoeffding tolerance from validate/stats.hpp at aggregate false-positive
// rate 1e-6 Bonferroni-split across every (seed, input) comparison the
// suite makes — replacing the old hand-tuned 4-sigma band whose aggregate
// rate was ~2e-3.
class WeightedSourceAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(WeightedSourceAccuracy, FrequenciesWithinDerivedBound) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<int> kdist(1, 15);
  std::vector<double> probs(6);
  for (double& p : probs) p = kdist(rng) / 16.0;
  const std::size_t n = 30'000;
  constexpr std::size_t kSeeds = 6;  // ::testing::Range(61, 67) below
  const double tol = mc_tolerance(n, kSeeds * 6, probs.size());
  const PatternSet ps = PatternSet::weighted(probs, n, rng());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    std::size_t ones = 0;
    for (std::size_t p = 0; p < n; ++p) ones += ps.get(p, i);
    const double freq = static_cast<double>(ones) / static_cast<double>(n);
    EXPECT_NEAR(freq, probs[i], tol) << "input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedSourceAccuracy,
                         ::testing::Range(61, 67));

// ---------------------------------------------------------------------
// required_test_length returns the *minimal* N on random profiles.
class TestLengthMinimality : public ::testing::TestWithParam<int> {};

TEST_P(TestLengthMinimality, NIsTightAtTheConfidence) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_real_distribution<double> uni(0.001, 0.9);
  std::vector<double> pf(20);
  for (double& p : pf) p = uni(rng);
  for (double e : {0.9, 0.99}) {
    const std::uint64_t n = required_test_length(pf, 1.0, e);
    ASSERT_NE(n, kInfiniteTestLength);
    EXPECT_GE(set_detection_prob(pf, n), e);
    if (n > 1) {
      EXPECT_LT(set_detection_prob(pf, n - 1), e);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TestLengthMinimality, ::testing::Range(71, 77));

// ---------------------------------------------------------------------
// SCOAP structural invariants on random circuits.
class ScoapInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ScoapInvariants, StemCoIsMinOfPinCos) {
  const Netlist net = random_net(static_cast<std::uint64_t>(GetParam()), 6, 40);
  const auto m = compute_scoap(net);
  for (NodeId n = 0; n < net.size(); ++n) {
    unsigned best = net.is_output(n) ? 0u : 1'000'000'000u;
    for (NodeId c : net.fanout(n)) {
      const auto& fanin = net.gate(c).fanin;
      for (std::size_t k = 0; k < fanin.size(); ++k)
        if (fanin[k] == n) best = std::min(best, m.pin_co[c][k]);
    }
    EXPECT_EQ(m.co[n], best) << "node " << n;
  }
}

TEST_P(ScoapInvariants, ControllabilityAtLeastOneForReachableValues) {
  const Netlist net = random_net(static_cast<std::uint64_t>(GetParam()), 6, 40);
  const auto m = compute_scoap(net);
  // Exhaustively find which values each node can take; any attainable
  // value must have finite SCOAP controllability.
  const PatternSet all = PatternSet::exhaustive(6);
  const auto ones = count_ones(net, all);
  for (NodeId n = 0; n < net.size(); ++n) {
    if (ones[n] > 0) {
      EXPECT_LT(m.cc1[n], 1'000'000'000u) << n;
    }
    if (ones[n] < all.num_patterns()) {
      EXPECT_LT(m.cc0[n], 1'000'000'000u) << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoapInvariants, ::testing::Range(81, 86));

// ---------------------------------------------------------------------
// Signature BIST: signature-detected is a subset of output-detected and
// the subset property holds across MISR widths.
class SignatureInvariants : public ::testing::TestWithParam<int> {};

TEST_P(SignatureInvariants, SignatureDetectionSubset) {
  const Netlist net = random_net(static_cast<std::uint64_t>(GetParam()), 6, 35);
  const auto faults = collapsed_fault_list(net);
  const PatternSet ps = PatternSet::random(6, 128, GetParam());
  for (unsigned width : {3u, 8u, 24u}) {
    const BistResult r = signature_bist(net, faults, ps, width);
    EXPECT_LE(r.detected_by_signature, r.detected_by_outputs);
    EXPECT_EQ(r.detected_by_outputs - r.aliased, r.detected_by_signature);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureInvariants, ::testing::Range(91, 95));

// ---------------------------------------------------------------------
// Static interval soundness, the full chain: every exact signal
// probability sits inside its static interval, and every Monte-Carlo
// detection estimate sits inside its static fault interval (pattern-seed
// independent — simulate_faults_pruned throws past 6 sigma).
class StaticIntervalSoundness : public ::testing::TestWithParam<int> {};

TEST_P(StaticIntervalSoundness, ExactSignalProbsInsideStaticBounds) {
  const Netlist net = random_net(static_cast<std::uint64_t>(GetParam()), 7, 50);
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 2663);
  std::uniform_real_distribution<double> uni(0.05, 0.95);
  InputProbs ip(7);
  for (double& p : ip) p = uni(rng);
  const auto exact = exact_signal_probs_bdd(net, ip);
  const SignalProbBounds bounds = signal_prob_bounds(net, ip);
  for (NodeId n = 0; n < net.size(); ++n) {
    ASSERT_GE(exact[n], bounds.lo[n] - 1e-9) << "node " << n;
    ASSERT_LE(exact[n], bounds.hi[n] + 1e-9) << "node " << n;
  }
}

TEST_P(StaticIntervalSoundness, McDetectionEstimatesInsideFaultIntervals) {
  const Netlist net = random_net(static_cast<std::uint64_t>(GetParam()), 7, 50);
  const auto faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  // Any pattern seed must land inside the intervals: the pruned
  // simulator's built-in 6-sigma cross-check is the assertion.
  for (const std::uint64_t pseed : {1u, 77u, 4242u}) {
    const PatternSet ps = PatternSet::random(net.inputs().size(), 2048, pseed);
    EXPECT_NO_THROW(simulate_faults_pruned(
        net, faults, ps, FaultSimMode::CountDetections, fa))
        << "circuit seed " << GetParam() << " pattern seed " << pseed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticIntervalSoundness,
                         ::testing::Range(201, 207));

}  // namespace
}  // namespace protest
