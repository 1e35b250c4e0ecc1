// MISR signature compaction and BIST aliasing analysis.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "sim/logic_sim.hpp"
#include "sim/signature.hpp"

namespace protest {
namespace {

TEST(Misr, ShiftsAndFolds) {
  Misr m(8, 0);
  EXPECT_EQ(m.state(), 0u);
  m.clock(0b1);  // XOR into stage 0 after shift of zero state
  EXPECT_EQ(m.state(), 1u);
  m.clock(0);  // plain shift (no taps hit)
  EXPECT_EQ(m.state(), 2u);
  m.reset(0xAB);
  EXPECT_EQ(m.state(), 0xABu);
}

TEST(Misr, StateStaysInWidth) {
  Misr m(5, 0x1F);
  for (int i = 0; i < 100; ++i) {
    m.clock(static_cast<std::uint64_t>(i));
    EXPECT_LT(m.state(), 32u);
  }
}

TEST(Misr, DifferentStreamsDifferentSignatures) {
  Misr a(16, 0), b(16, 0);
  for (int i = 0; i < 50; ++i) {
    a.clock(static_cast<std::uint64_t>(i & 3));
    b.clock(static_cast<std::uint64_t>((i + 1) & 3));
  }
  EXPECT_NE(a.state(), b.state());
}

TEST(Misr, RejectsWidthsWithoutTaps) {
  for (const unsigned width : {0u, 1u, 33u, 63u, 65u})
    EXPECT_THROW(Misr{width}, std::invalid_argument) << width;
  for (const unsigned width : {2u, 32u, 64u})
    EXPECT_EQ(Misr{width}.width(), width);
}

TEST(Signature, GoodSignatureDeterministic) {
  const Netlist net = make_c17();
  const PatternSet ps = PatternSet::random(5, 500, 9);
  const std::uint64_t s1 = good_signature(net, ps, 16);
  const std::uint64_t s2 = good_signature(net, ps, 16);
  EXPECT_EQ(s1, s2);
  // A different seed gives a different run, almost surely a different sig.
  const PatternSet ps2 = PatternSet::random(5, 500, 10);
  EXPECT_NE(s1, good_signature(net, ps2, 16));
}

TEST(Signature, BistDetectsWhatOutputsDetect) {
  const Netlist net = make_c17();
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::exhaustive(5);
  const BistResult r = signature_bist(net, faults, ps, 16);
  EXPECT_EQ(r.faults, faults.size());
  // With a 16-bit MISR aliasing is ~2^-16: expect none on this tiny list.
  EXPECT_EQ(r.aliased, 0u);
  EXPECT_EQ(r.detected_by_signature, r.detected_by_outputs);
  EXPECT_GT(r.detected_by_outputs, 0u);
}

TEST(Signature, TinyMisrAliases) {
  // A 2-bit MISR has a 1-in-4 chance per fault of aliasing; on a big fault
  // list some aliasing should appear, and it must never exceed the
  // output-detected count.
  const Netlist net = make_circuit("alu");
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::random(net.inputs().size(), 64, 5);
  const BistResult r = signature_bist(net, faults, ps, 2);
  EXPECT_LE(r.detected_by_signature, r.detected_by_outputs);
  EXPECT_GT(r.aliased, 0u);
  EXPECT_LT(r.aliasing_rate(), 0.5);  // far below 1, near 2^-2 in theory
}

TEST(Signature, WiderMisrAliasesLess) {
  const Netlist net = make_circuit("alu");
  const auto faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::random(net.inputs().size(), 64, 5);
  const BistResult narrow = signature_bist(net, faults, ps, 4);
  const BistResult wide = signature_bist(net, faults, ps, 32);
  EXPECT_LE(wide.aliased, narrow.aliased);
  EXPECT_EQ(wide.aliased, 0u);  // 2^-32 on a few hundred faults
}

// --- an independent per-pattern reference ----------------------------------

/// Node values of one pattern with fault `f` injected: a plain Gate walk
/// over the Boolean eval_gate, one pattern at a time.
std::vector<bool> faulty_single(const Netlist& net, const Fault& f,
                                const std::vector<bool>& in) {
  std::vector<bool> v(net.size());
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < in.size(); ++i) v[inputs[i]] = in[i];
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    if (g.type != GateType::Input) {
      std::array<bool, 64> ins{};
      for (std::size_t k = 0; k < g.fanin.size(); ++k)
        ins[k] = !f.is_stem() && f.node == n && static_cast<int>(k) == f.pin
                     ? f.sa == StuckAt::One
                     : static_cast<bool>(v[g.fanin[k]]);
      v[n] = eval_gate(g.type,
                       std::span<const bool>(ins.data(), g.fanin.size()));
    }
    if (f.is_stem() && f.node == n) v[n] = f.sa == StuckAt::One;
  }
  return v;
}

/// Primary-output values of every pattern of `ps`, for the circuit with
/// `f` injected, or for the good circuit (simulate_single) when `f` is null.
std::vector<std::vector<bool>> reference_outputs(const Netlist& net,
                                                 const Fault* f,
                                                 const PatternSet& ps) {
  std::vector<std::vector<bool>> outs(ps.num_patterns());
  for (std::size_t p = 0; p < ps.num_patterns(); ++p) {
    std::vector<bool> in(ps.num_inputs());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = ps.get(p, i);
    const std::vector<bool> v =
        f != nullptr ? faulty_single(net, *f, in) : simulate_single(net, in);
    for (const NodeId o : net.outputs()) outs[p].push_back(v[o]);
  }
  return outs;
}

/// MISR signature of per-pattern output values: output i of a pattern
/// drives stage i mod width.
std::uint64_t reference_signature(const std::vector<std::vector<bool>>& outs,
                                  unsigned width, std::uint64_t init) {
  Misr misr(width, init);
  for (const std::vector<bool>& pattern : outs) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < pattern.size(); ++i)
      w ^= static_cast<std::uint64_t>(pattern[i]) << (i % width);
    misr.clock(w);
  }
  return misr.state();
}

/// signature_bist from the good and every faulty circuit's outputs.
BistResult reference_bist(
    const std::vector<std::vector<bool>>& good,
    const std::vector<std::vector<std::vector<bool>>>& faulty, unsigned width,
    std::uint64_t init) {
  const std::uint64_t good_signature = reference_signature(good, width, init);
  BistResult r;
  r.faults = faulty.size();
  for (const auto& outs : faulty) {
    const bool flipped = outs != good;
    const bool sig_diff =
        reference_signature(outs, width, init) != good_signature;
    r.detected_by_outputs += flipped;
    r.detected_by_signature += sig_diff;
    r.aliased += flipped && !sig_diff;
  }
  return r;
}

void expect_same_bist(const BistResult& got, const BistResult& want,
                      const std::string& where) {
  EXPECT_EQ(got.faults, want.faults) << where;
  EXPECT_EQ(got.detected_by_outputs, want.detected_by_outputs) << where;
  EXPECT_EQ(got.detected_by_signature, want.detected_by_signature) << where;
  EXPECT_EQ(got.aliased, want.aliased) << where;
}

TEST(Signature, BistMatchesPerPatternReference) {
  std::vector<std::pair<std::string, Netlist>> nets;
  nets.emplace_back("c17", make_c17());
  for (const std::uint64_t seed : {91u, 92u, 93u, 94u}) {
    RandomCircuitParams params;
    params.num_inputs = 6;
    params.num_gates = 35;
    params.seed = seed;
    nets.emplace_back("random seed " + std::to_string(seed),
                      make_random_circuit(params));
  }
  for (const auto& [name, net] : nets) {
    // c17 exhaustively; 130 random patterns leave the last block partial.
    const PatternSet ps =
        name == "c17" ? PatternSet::exhaustive(net.inputs().size())
                      : PatternSet::random(net.inputs().size(), 130, 7);
    const std::vector<Fault> faults = full_fault_list(net);
    const auto good = reference_outputs(net, nullptr, ps);
    std::vector<std::vector<std::vector<bool>>> faulty;
    for (const Fault& f : faults)
      faulty.push_back(reference_outputs(net, &f, ps));
    for (const unsigned width : {2u, 3u, 8u, 24u}) {
      for (const std::uint64_t init : {std::uint64_t{0}, std::uint64_t{0x5b}}) {
        const std::string where = name + " width " + std::to_string(width) +
                                  " init " + std::to_string(init);
        expect_same_bist(signature_bist(net, faults, ps, width, init),
                         reference_bist(good, faulty, width, init), where);
        EXPECT_EQ(good_signature(net, ps, width, init),
                  reference_signature(good, width, init))
            << where;
      }
    }
  }
}

// Every field at four MISR widths on alu's structural faults; any rewrite
// of the fault-effect walk must reproduce them exactly.
TEST(Signature, GoldenBistResults) {
  const Netlist net = make_circuit("alu");
  const std::vector<Fault> faults = structural_fault_list(net);
  const PatternSet ps = PatternSet::random(net.inputs().size(), 512, 1985);
  struct Case {
    unsigned width;
    BistResult want;
  };
  const Case cases[] = {
      {2, {536, 520, 392, 128}},
      {4, {536, 520, 493, 27}},
      {16, {536, 520, 520, 0}},
      {32, {536, 520, 520, 0}},
  };
  for (const Case& c : cases)
    expect_same_bist(signature_bist(net, faults, ps, c.width), c.want,
                     "alu width " + std::to_string(c.width));
}

}  // namespace
}  // namespace protest
