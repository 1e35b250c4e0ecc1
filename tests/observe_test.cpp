// Observability s(x), detection probabilities, miter transform and the
// single-path option (sect. 3).
#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "netlist/builder.hpp"
#include "observe/detect.hpp"
#include "observe/miter.hpp"
#include "observe/single_path.hpp"
#include "prob/exact.hpp"
#include "prob/naive.hpp"
#include "prob/protest_estimator.hpp"
#include "sim/fault_sim.hpp"

namespace protest {
namespace {

/// Exhaustive-simulation detection probability (the P_SIM oracle).
std::vector<double> psim_exhaustive(const Netlist& net,
                                    std::span<const Fault> faults) {
  const PatternSet all = PatternSet::exhaustive(net.inputs().size());
  return simulate_faults(net, faults, all, FaultSimMode::CountDetections)
      .detection_probs();
}

TEST(Observability, ChainOfBuffers) {
  // i -> BUF -> NOT -> PO: every stem fully observable.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.buf(a);
  const NodeId c = bld.inv(b);
  bld.output(c);
  const Netlist net = bld.build();
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  const auto obs = compute_observability(net, p);
  for (NodeId n = 0; n < net.size(); ++n) EXPECT_DOUBLE_EQ(obs.stem[n], 1.0);
}

TEST(Observability, AndGateSideInput) {
  // y = AND(a, b), p_b = 0.25: s(a-pin) = 0.25.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.input("b");
  const NodeId y = bld.and2(a, b);
  bld.output(y);
  const Netlist net = bld.build();
  const double ip[] = {0.5, 0.25};
  const auto p = naive_signal_probs(net, ip);
  const auto obs = compute_observability(net, p);
  EXPECT_DOUBLE_EQ(obs.pin[y][0], 0.25);
  EXPECT_DOUBLE_EQ(obs.pin[y][1], 0.5);
  EXPECT_DOUBLE_EQ(obs.stem[a], 0.25);
}

TEST(Observability, PaperXorTransferUnderestimates) {
  // Paper formula on XOR: f0 (*) f1 = 1 - 2 p (1-p) < 1; Boolean
  // difference gives exactly 1.  This is the documented fig. 6 bias.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.input("b");
  bld.output(bld.xor2(a, b));
  const Netlist net = bld.build();
  const auto p = naive_signal_probs(net, uniform_input_probs(net, 0.5));
  const NodeId y = net.outputs()[0];
  EXPECT_DOUBLE_EQ(
      gate_transfer(net, y, 0, p, TransferModel::PaperArithmetic), 0.5);
  EXPECT_DOUBLE_EQ(
      gate_transfer(net, y, 0, p, TransferModel::BooleanDifference), 1.0);
}

/// compute_observability written the direct way: a consumer list per node
/// built from the Gate fanins, a vector per gate's pins, and gate_transfer
/// per pin.  The flat kernel must match it bit for bit.
Observability reference_observability(const Netlist& net,
                                      std::span<const double> p,
                                      ObservabilityOptions opts) {
  std::vector<double> stem(net.size(), 0.0);
  std::vector<std::vector<double>> pin(net.size());
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> consumers(
      net.size());
  for (NodeId c = 0; c < net.size(); ++c) {
    pin[c].assign(net.gate(c).fanin.size(), 0.0);
    for (std::size_t k = 0; k < net.gate(c).fanin.size(); ++k)
      consumers[net.gate(c).fanin[k]].push_back({c, k});
  }
  for (NodeId n = net.size(); n-- > 0;) {
    double s;
    if (opts.stem == StemModel::XorChain) {
      s = net.is_output(n) ? 1.0 : 0.0;
      for (const auto& [c, k] : consumers[n])
        s = s + pin[c][k] - 2.0 * s * pin[c][k];
    } else {
      double miss = net.is_output(n) ? 0.0 : 1.0;
      for (const auto& [c, k] : consumers[n]) miss *= 1.0 - pin[c][k];
      s = 1.0 - miss;
    }
    stem[n] = std::clamp(s, 0.0, 1.0);
    for (std::size_t k = 0; k < pin[n].size(); ++k)
      pin[n][k] = std::clamp(
          stem[n] * gate_transfer(net, n, k, p, opts.transfer), 0.0, 1.0);
  }
  Observability obs;
  obs.stem = std::move(stem);
  obs.pin.offset.push_back(0);
  for (const auto& v : pin) {
    obs.pin.values.insert(obs.pin.values.end(), v.begin(), v.end());
    obs.pin.offset.push_back(static_cast<std::uint32_t>(obs.pin.values.size()));
  }
  return obs;
}

TEST(Observability, FlatPinsMatchPerPinReference) {
  std::vector<Netlist> nets;
  {
    // One gate reading the same net on two pins, beside other consumers:
    // its two branches fold in pin order between its neighbours'.
    NetlistBuilder bld;
    const NodeId a = bld.input("a");
    const NodeId b = bld.input("b");
    const NodeId x = bld.and2(a, b);
    const NodeId y = bld.gate(GateType::Nand, {x, b, x});
    const NodeId z = bld.gate(GateType::Xor, {x, y, a});
    bld.output(y);
    bld.output(z);
    nets.push_back(bld.build());
  }
  nets.push_back(make_c17());
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    RandomCircuitParams params;
    params.num_inputs = 10;
    params.num_gates = 120;
    params.max_fanin = 4;
    params.fanout_skew = 0.3;
    params.seed = seed;
    nets.push_back(make_random_circuit(params));
  }
  for (const Netlist& net : nets) {
    std::vector<double> ip(net.inputs().size());
    for (std::size_t i = 0; i < ip.size(); ++i)
      ip[i] = 0.1 + 0.07 * static_cast<double>(i);
    for (double& v : ip) v = std::min(v, 0.95);
    const auto p = naive_signal_probs(net, ip);
    for (const StemModel stem : {StemModel::XorChain, StemModel::OrChain})
      for (const TransferModel tr :
           {TransferModel::PaperArithmetic, TransferModel::BooleanDifference}) {
        const ObservabilityOptions opts{stem, tr};
        const Observability got = compute_observability(net, p, opts);
        const Observability want = reference_observability(net, p, opts);
        EXPECT_EQ(got.stem, want.stem);
        EXPECT_EQ(got.pin.offset, want.pin.offset);
        EXPECT_EQ(got.pin.values, want.pin.values);
        for (NodeId n = 0; n < net.size(); ++n)
          ASSERT_EQ(got.pin[n].size(), net.gate(n).fanin.size());
      }
  }
}

TEST(Observability, StemModelsDifferOnReconvergence) {
  // Model A (xor-chain) can cancel reconvergent paths; model B cannot.
  const Netlist net = make_c17();
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  ObservabilityOptions a, b;
  a.stem = StemModel::XorChain;
  b.stem = StemModel::OrChain;
  const auto oa = compute_observability(net, p, a);
  const auto ob = compute_observability(net, p, b);
  const NodeId stem11 = net.find("11");  // fans out to two gates
  EXPECT_LE(oa.stem[stem11], ob.stem[stem11] + 1e-12);
  for (NodeId n = 0; n < net.size(); ++n) {
    EXPECT_GE(oa.stem[n], 0.0);
    EXPECT_LE(oa.stem[n], 1.0);
  }
}

TEST(DetectionProbs, ExactOnTreeCircuit) {
  // On a fanout-free AND-gate circuit with BooleanDifference transfer the
  // estimate equals the exhaustive-simulation value for stem faults.
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.input("b");
  const NodeId c = bld.input("c");
  const NodeId y = bld.and2(bld.and2(a, b), c);
  bld.output(y);
  const Netlist net = bld.build();
  const auto faults = structural_fault_list(net);
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  ObservabilityOptions opts;
  opts.transfer = TransferModel::BooleanDifference;
  const auto obs = compute_observability(net, p, opts);
  const auto est = detection_probs(net, faults, p, obs);
  const auto ref = psim_exhaustive(net, faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_NEAR(est[i], ref[i], 1e-12) << to_string(net, faults[i]);
}

TEST(DetectionProbs, StuckAtZeroAndOneComplementary) {
  const Netlist net = make_c17();
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  const auto obs = compute_observability(net, p);
  for (NodeId n = 0; n < net.size(); ++n) {
    const Fault f0{n, -1, StuckAt::Zero};
    const Fault f1{n, -1, StuckAt::One};
    const double d0 = detection_prob(net, f0, p, obs);
    const double d1 = detection_prob(net, f1, p, obs);
    EXPECT_NEAR(d0 + d1, obs.stem[n], 1e-12) << n;
  }
}

TEST(Miter, ExactDetectionEqualsExhaustiveSim) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const auto ref = psim_exhaustive(net, faults);
  const auto ip = uniform_input_probs(net, 0.5);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const double d = exact_detection_prob_bdd(net, faults[i], ip);
    EXPECT_NEAR(d, ref[i], 1e-12) << to_string(net, faults[i]);
  }
}

TEST(Miter, ExactDetectionRandomCircuits) {
  for (std::uint64_t seed : {11u, 12u}) {
    RandomCircuitParams params;
    params.num_inputs = 6;
    params.num_gates = 35;
    params.seed = seed;
    const Netlist net = make_random_circuit(params);
    const auto faults = structural_fault_list(net);
    const auto ref = psim_exhaustive(net, faults);
    const auto ip = uniform_input_probs(net, 0.5);
    for (std::size_t i = 0; i < faults.size(); i += 3) {  // sample
      const double d = exact_detection_prob_bdd(net, faults[i], ip);
      EXPECT_NEAR(d, ref[i], 1e-12)
          << "seed " << seed << " " << to_string(net, faults[i]);
    }
  }
}

TEST(Miter, EstimatedDetectionTracksExact) {
  // The miter doubles the circuit and correlates every node with its
  // faulty twin, so conditioning needs a deeper W than on c17 itself.
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const auto ip = uniform_input_probs(net, 0.5);
  ProtestParams params;
  params.maxvers = 10;
  params.max_candidates = 32;
  double total_err = 0.0;
  for (const Fault& f : faults) {
    const double exact = exact_detection_prob_bdd(net, f, ip);
    const double est = estimated_detection_prob_miter(net, f, ip, params);
    EXPECT_NEAR(est, exact, 0.30) << to_string(net, f);
    total_err += std::abs(est - exact);
  }
  EXPECT_LT(total_err / static_cast<double>(faults.size()), 0.05);
}

TEST(Miter, UnobservableFaultGetsConstMiter) {
  // A node with no path to any output: detection probability 0.
  Netlist net;
  const NodeId a = net.add_input("a");
  const NodeId dead = net.add_gate(GateType::Not, {a}, "dead");
  (void)dead;
  const NodeId y = net.add_gate(GateType::Buf, {a}, "y");
  net.mark_output(y);
  net.finalize();
  const Fault f{net.find("dead"), -1, StuckAt::One};
  const double ip[] = {0.5};
  EXPECT_DOUBLE_EQ(exact_detection_prob_bdd(net, f, ip), 0.0);
}

TEST(SinglePath, LowerBoundsExactDetection) {
  // The best single path is one way to detect: its probability can not
  // exceed the exact detection probability on circuits where the paper's
  // side-input independence holds exactly (tree circuits).
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.input("b");
  const NodeId c = bld.input("c");
  bld.output(bld.or2(bld.and2(a, b), c));
  const Netlist net = bld.build();
  const auto faults = structural_fault_list(net);
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  const auto sp = single_path_detection_probs(net, faults, p);
  const auto ref = psim_exhaustive(net, faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_LE(sp[i], ref[i] + 1e-12) << to_string(net, faults[i]);
}

TEST(SinglePath, ObservabilityWithinUnit) {
  const Netlist net = make_c17();
  const auto p = naive_signal_probs(net, uniform_input_probs(net));
  const auto sp = single_path_observability(net, p);
  for (NodeId n = 0; n < net.size(); ++n) {
    EXPECT_GE(sp[n], 0.0);
    EXPECT_LE(sp[n], 1.0);
  }
  for (NodeId o : net.outputs()) EXPECT_DOUBLE_EQ(sp[o], 1.0);
}

}  // namespace
}  // namespace protest
