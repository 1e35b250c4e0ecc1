// Signal probability engines: naive (AgAg75), exact (BDD + enumeration),
// Monte-Carlo, and the PROTEST estimator (sect. 2).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/sn74181.hpp"
#include "circuits/zoo.hpp"
#include "netlist/builder.hpp"
#include "prob/exact.hpp"
#include "prob/monte_carlo.hpp"
#include "prob/naive.hpp"
#include "prob/protest_estimator.hpp"
#include "validate/stats.hpp"

namespace protest {
namespace {

Netlist make_tree() {
  // No fanout at all: y = OR(AND(a,b), XOR(c, NOT(d))).
  NetlistBuilder bld;
  const NodeId a = bld.input("a"), b = bld.input("b");
  const NodeId c = bld.input("c"), d = bld.input("d");
  bld.output(bld.or2(bld.and2(a, b), bld.xor2(c, bld.inv(d))), "y");
  return bld.build();
}

Netlist make_diamond() {
  // y = AND(NOT(s), BUF(s)) with s = AND(a,b): y is constant 0.
  NetlistBuilder bld;
  const NodeId a = bld.input("a"), b = bld.input("b");
  const NodeId s = bld.and2(a, b);
  bld.output(bld.and2(bld.inv(s), bld.buf(s)), "y");
  return bld.build();
}

TEST(NaiveProbs, ExactOnTrees) {
  const Netlist net = make_tree();
  EXPECT_TRUE(is_fanout_reconvergence_free(net));
  const double ip[] = {0.3, 0.6, 0.5, 0.9};
  const auto naive = naive_signal_probs(net, ip);
  const auto exact = exact_signal_probs_enum(net, ip);
  for (NodeId n = 0; n < net.size(); ++n)
    EXPECT_NEAR(naive[n], exact[n], 1e-12) << n;
}

TEST(NaiveProbs, WrongOnDiamond) {
  const Netlist net = make_diamond();
  EXPECT_FALSE(is_fanout_reconvergence_free(net));
  const auto naive = naive_signal_probs(net, uniform_input_probs(net));
  // True probability of y is 0; naive gives p(1-p) = 0.1875.
  EXPECT_NEAR(naive[net.outputs()[0]], 0.25 * 0.75, 1e-12);
}

TEST(ExactProbs, BddEqualsEnumeration) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    RandomCircuitParams params;
    params.num_inputs = 7;
    params.num_gates = 40;
    params.seed = seed;
    const Netlist net = make_random_circuit(params);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uni(0.05, 0.95);
    std::vector<double> ip(7);
    for (double& p : ip) p = uni(rng);
    const auto bdd = exact_signal_probs_bdd(net, ip);
    const auto num = exact_signal_probs_enum(net, ip);
    for (NodeId n = 0; n < net.size(); ++n)
      EXPECT_NEAR(bdd[n], num[n], 1e-9) << "seed " << seed << " node " << n;
  }
}

TEST(ExactProbs, EnumRejectsWideCircuits) {
  RandomCircuitParams params;
  params.num_inputs = 25;
  params.num_gates = 5;
  const Netlist net = make_random_circuit(params);
  EXPECT_THROW(exact_signal_probs_enum(net, uniform_input_probs(net)),
               std::invalid_argument);
}

TEST(MonteCarlo, ConvergesToExact) {
  const Netlist net = make_c17();
  const auto ip = uniform_input_probs(net, 0.5);
  const auto exact = exact_signal_probs_bdd(net, ip);
  constexpr std::size_t kPatterns = 200'000;
  const auto mc = monte_carlo_signal_probs(net, ip, kPatterns, 12345);
  // Hoeffding tolerance at aggregate false-positive rate 1e-6 across the
  // per-node comparisons (validate/stats.hpp) — no hand-tuned epsilon.
  const double tol =
      mc_tolerance(kPatterns, net.size(), net.inputs().size());
  for (NodeId n = 0; n < net.size(); ++n)
    EXPECT_NEAR(mc[n], exact[n], tol) << n;
}

TEST(ProtestEstimator, ExactOnDiamond) {
  const Netlist net = make_diamond();
  const ProtestEstimator est(net);
  const auto p = est.signal_probs(uniform_input_probs(net));
  EXPECT_NEAR(p[net.outputs()[0]], 0.0, 1e-12);
  EXPECT_GE(est.stats().gates_conditioned, 1u);
}

TEST(ProtestEstimator, ExactOnDirectReconvergence) {
  // y = AND(a, NOT(a)) == 0 and z = OR(a, NOT(a)) == 1.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId na = bld.inv(a);
  bld.output(bld.and2(a, na), "y");
  bld.output(bld.or2(a, na), "z");
  const Netlist net = bld.build();
  const ProtestEstimator est(net);
  const auto p = est.signal_probs(uniform_input_probs(net));
  EXPECT_NEAR(p[net.find("y")], 0.0, 1e-12);
  EXPECT_NEAR(p[net.find("z")], 1.0, 1e-12);
}

TEST(ProtestEstimator, ExactOnC17) {
  // c17 is small enough that MAXVERS=4 covers every joining point set.
  const Netlist net = make_c17();
  const ProtestEstimator est(net);
  for (double p0 : {0.5, 0.3, 0.8}) {
    const auto ip = uniform_input_probs(net, p0);
    const auto est_p = est.signal_probs(ip);
    const auto exact = exact_signal_probs_bdd(net, ip);
    for (NodeId n = 0; n < net.size(); ++n)
      EXPECT_NEAR(est_p[n], exact[n], 1e-9) << "p0=" << p0 << " node " << n;
  }
}

TEST(ProtestEstimator, MaxversZeroDegeneratesToNaive) {
  const Netlist net = make_c17();
  ProtestParams params;
  params.maxvers = 0;
  const ProtestEstimator est(net, params);
  const auto ip = uniform_input_probs(net, 0.5);
  const auto est_p = est.signal_probs(ip);
  const auto naive = naive_signal_probs(net, ip);
  for (NodeId n = 0; n < net.size(); ++n)
    EXPECT_NEAR(est_p[n], naive[n], 1e-12) << n;
}

TEST(ProtestEstimator, MaxlistBoundsSearchDepth) {
  // Long asymmetric diamond: y = AND(NOT^4(s), BUF(s)).  NOT^4 is the
  // identity, so exactly p(y) = p(s) = 0.25, while naive propagation gives
  // p(s)^2 = 0.0625.  With MAXLIST=2 the stem's left branch lies 3 steps
  // from the left root, so the joining point is invisible -> naive value;
  // unbounded search recovers exactness.
  NetlistBuilder bld;
  const NodeId a = bld.input("a"), b = bld.input("b");
  const NodeId s = bld.and2(a, b);
  NodeId l = s;
  for (int i = 0; i < 4; ++i) l = bld.inv(l);
  bld.output(bld.and2(l, bld.buf(s)), "y");
  const Netlist net = bld.build();

  ProtestParams bounded;
  bounded.maxlist = 2;
  const auto p_bounded = ProtestEstimator(net, bounded)
                             .signal_probs(uniform_input_probs(net));
  EXPECT_NEAR(p_bounded[net.outputs()[0]], 0.0625, 1e-12);

  ProtestParams unbounded;
  unbounded.maxlist = 0;
  const auto p_full = ProtestEstimator(net, unbounded)
                          .signal_probs(uniform_input_probs(net));
  EXPECT_NEAR(p_full[net.outputs()[0]], 0.25, 1e-12);
}

// Property sweep: on random reconvergent circuits the estimator must be at
// least as accurate (in mean absolute error vs exact) as naive propagation.
class EstimatorAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorAccuracy, BeatsOrMatchesNaive) {
  RandomCircuitParams params;
  params.num_inputs = 8;
  params.num_gates = 60;
  params.seed = static_cast<std::uint64_t>(GetParam());
  const Netlist net = make_random_circuit(params);
  const auto ip = uniform_input_probs(net, 0.5);
  const auto exact = exact_signal_probs_bdd(net, ip);
  const auto naive = naive_signal_probs(net, ip);
  const ProtestEstimator est(net);
  const auto guess = est.signal_probs(ip);
  double err_naive = 0, err_est = 0;
  for (NodeId n = 0; n < net.size(); ++n) {
    err_naive += std::abs(naive[n] - exact[n]);
    err_est += std::abs(guess[n] - exact[n]);
  }
  // Allow a tiny slack: conditioning is a heuristic and can locally lose.
  EXPECT_LE(err_est, err_naive + 0.05)
      << "estimator " << err_est << " vs naive " << err_naive;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorAccuracy, ::testing::Range(1, 13));

TEST(ProtestEstimator, AccurateOnAlu) {
  const Netlist net = make_sn74181();
  const auto ip = uniform_input_probs(net, 0.5);
  const auto exact = exact_signal_probs_enum(net, ip);
  const auto naive = naive_signal_probs(net, ip);
  const ProtestEstimator est(net);
  const auto guess = est.signal_probs(ip);
  double err_naive = 0, err_est = 0, max_est = 0;
  for (NodeId n = 0; n < net.size(); ++n) {
    err_naive += std::abs(naive[n] - exact[n]);
    err_est += std::abs(guess[n] - exact[n]);
    max_est = std::max(max_est, std::abs(guess[n] - exact[n]));
  }
  err_naive /= static_cast<double>(net.size());
  err_est /= static_cast<double>(net.size());
  EXPECT_LT(err_est, err_naive);   // conditioning must help on the ALU
  EXPECT_LT(err_est, 0.03);        // and be accurate in absolute terms
}

// Golden bit patterns: every estimator entry point is hashed (FNV-1a over
// the IEEE bit patterns of each returned probability) and compared with
// hashes recorded from the straightforward full-cone kernel.  Any kernel
// rework must reproduce those numbers bit for bit, not just closely.  The
// script mirrors the served what-if round: a full evaluation, four exact
// perturbs of it, a screen after them, then a full evaluation of a new
// tuple and two more tuples evaluated under its conditioning sets (what
// the shared-selection batch of the full-cone kernel computed).
// The values assume IEEE doubles without fused multiply-add contraction
// (the default x86-64 code generation).
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(const std::vector<double>& probs) {
    add(probs.size());
    for (double p : probs) add(std::bit_cast<std::uint64_t>(p));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t golden_script_hash(const Netlist& net,
                                 const ProtestParams& params) {
  const std::size_t ni = net.inputs().size();
  // Dyadic probabilities in (0, 1): exact in binary, portable to write.
  auto tuple = [&](std::size_t stride, std::size_t offset) {
    InputProbs ip(ni);
    for (std::size_t i = 0; i < ni; ++i)
      ip[i] = 0.0625 * static_cast<double>(1 + (i * stride + offset) % 15);
    return ip;
  };
  const InputProbs base = tuple(7, 0);
  const ProtestEstimator est(net, params);
  Fnv1a h;
  const Evaluation full = est.evaluate(base);
  h.add(full.probs);
  h.add(est.stats().gates_conditioned);
  h.add(est.stats().max_w);
  const double moves[] = {0.125, 0.875, 0.3125, 0.5625};
  for (std::size_t k = 0; k < 4; ++k)
    h.add(est.perturb(base, full, (k * ni) / 4, moves[k]).probs);
  h.add(est.screen(base, full, ni / 2, 0.9375));
  const Evaluation first = est.evaluate(tuple(3, 5));
  h.add(first.probs);
  h.add(est.evaluate_under(tuple(5, 1), *first.selection));
  h.add(est.evaluate_under(uniform_input_probs(net, 0.5), *first.selection));
  return h.value();
}

struct GoldenCase {
  const char* circuit;
  unsigned maxvers;
  unsigned max_candidates;
  std::uint64_t hash;
};

TEST(ProtestEstimator, GoldenBitPatterns) {
  const ProtestParams defaults;
  const GoldenCase cases[] = {
      {"c17", defaults.maxvers, defaults.max_candidates, 802453982375007450u},
      {"alu", defaults.maxvers, defaults.max_candidates, 1831845030261732388u},
      {"mult", defaults.maxvers, defaults.max_candidates,
       18121010025177552028u},
      {"div", defaults.maxvers, defaults.max_candidates, 9949253895706027412u},
      {"alu", 10, 32, 14945863655245872969u},  // observe_test's config
      {"mult", defaults.maxvers, 48, 10962140055859131135u},  // the ablation's
      // Up to 128 candidates per gate: candidates c and c + 64 share a
      // reach-mask bit.
      {"mult", defaults.maxvers, 128, 7310468995186666662u},
  };
  for (const GoldenCase& c : cases) {
    ProtestParams params;
    params.maxvers = c.maxvers;
    params.max_candidates = c.max_candidates;
    EXPECT_EQ(golden_script_hash(make_circuit(c.circuit), params), c.hash)
        << c.circuit << " maxvers " << c.maxvers << " max_candidates "
        << c.max_candidates;
  }
}

// z is a reconvergent AND wider than the 32 roots a bounded cone is grown
// from (ConeWorkspace::compute), so its 33rd fanin, the input x, lies
// outside its cone.  The gate y before it conditions on x, and its last
// pinned run leaves x at a constant in the cone scratch.  Conditioning on
// x (for y) and s (for z) is exact here, so every entry point must agree
// with the exact probabilities.
Netlist make_wide_reconvergent() {
  NetlistBuilder bld;
  const NodeId s = bld.input("s"), a = bld.input("a"), b = bld.input("b");
  const NodeId c = bld.input("c"), d = bld.input("d"), x = bld.input("x");
  bld.output(bld.gate(GateType::Or, {bld.and2(x, c), bld.and2(x, d)}, "y"));
  std::vector<NodeId> fanin = {bld.and2(s, a), bld.and2(s, b)};
  for (int i = 0; i < 30; ++i)
    fanin.push_back(bld.input("i" + std::to_string(i)));
  fanin.push_back(x);
  bld.output(bld.gate(GateType::And, std::move(fanin), "z"));
  return bld.build();
}

TEST(ProtestEstimator, WideGateReadsFaninsOutsideItsCone) {
  const Netlist net = make_wide_reconvergent();
  ASSERT_EQ(net.gate(net.find("z")).fanin.size(), 33u);
  constexpr std::size_t kS = 0, kX = 5;
  // Inputs near 1 keep p(z) well away from 0.
  InputProbs base(net.inputs().size(), 0.9375);
  base[kS] = 0.75;
  base[kX] = 0.625;
  InputProbs moved = base;
  moved[kX] = 0.25;
  auto expect_exact = [&](const std::vector<double>& got,
                          const InputProbs& ip, const char* entry) {
    const std::vector<double> exact = exact_signal_probs_bdd(net, ip);
    for (NodeId n = 0; n < net.size(); ++n)
      EXPECT_NEAR(got[n], exact[n], 1e-12) << entry << " node " << n;
  };
  const ProtestEstimator est(net);
  const Evaluation full = est.evaluate(base);
  EXPECT_EQ(est.stats().gates_conditioned, 2u);
  expect_exact(full.probs, base, "evaluate");
  expect_exact(est.perturb(base, full, kX, moved[kX]).probs, moved,
               "exact perturb");
  expect_exact(est.screen(base, full, kX, moved[kX]), moved, "screen");
  expect_exact(est.evaluate_under(moved, *full.selection), moved,
               "evaluate under the base's selection");
  // Recorded from the full-cone kernel, like the cases above.
  EXPECT_EQ(golden_script_hash(net, {}), 14470955687527920721u);
}

TEST(ProtestEstimator, RejectsBadInputs) {
  const Netlist net = make_c17();
  const ProtestEstimator est(net);
  const double too_few[] = {0.5};
  EXPECT_THROW(est.signal_probs(too_few), std::invalid_argument);
  const double out_of_range[] = {0.5, 0.5, 1.5, 0.5, 0.5};
  EXPECT_THROW(est.signal_probs(out_of_range), std::invalid_argument);
}

}  // namespace
}  // namespace protest
