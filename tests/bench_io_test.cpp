// .bench reader/writer: grammar coverage, forward references, error
// reporting, and round-trip identity.
#include <gtest/gtest.h>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "sim/word_sim.hpp"
#include "sim/pattern.hpp"

namespace protest {
namespace {

TEST(BenchIo, ParsesC17) {
  const Netlist net = read_bench_string(c17_bench_text());
  EXPECT_EQ(net.inputs().size(), 5u);
  EXPECT_EQ(net.outputs().size(), 2u);
  EXPECT_EQ(net.num_gates(), 6u);
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!net.is_input(n)) {
      EXPECT_EQ(net.gate(n).type, GateType::Nand);
    }
  }
}

TEST(BenchIo, ForwardReferencesResolve) {
  const Netlist net = read_bench_string(R"(
    INPUT(a)
    INPUT(b)
    OUTPUT(y)
    y = AND(t, b)   # t defined after use
    t = NOT(a)
  )");
  EXPECT_EQ(net.num_gates(), 2u);
  EXPECT_NE(net.find("t"), kNoNode);
}

TEST(BenchIo, AllGateTypesParse) {
  const Netlist net = read_bench_string(R"(
    INPUT(a)
    INPUT(b)
    OUTPUT(o)
    g1 = AND(a, b)
    g2 = NAND(a, b)
    g3 = OR(a, b)
    g4 = NOR(a, b)
    g5 = XOR(a, b)
    g6 = XNOR(a, b)
    g7 = NOT(a)
    g8 = BUFF(b)
    g9 = BUF(b)
    g10 = CONST0()
    g11 = CONST1()
    o = OR(g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11)
  )");
  EXPECT_EQ(net.num_gates(), 12u);
  EXPECT_EQ(net.gate(net.find("g10")).type, GateType::Const0);
  EXPECT_EQ(net.gate(net.find("g8")).type, GateType::Buf);
}

TEST(BenchIo, CaseInsensitiveKeywords) {
  const Netlist net = read_bench_string(
      "input(a)\ninput(b)\noutput(y)\ny = nand(a, b)\n");
  EXPECT_EQ(net.gate(net.find("y")).type, GateType::Nand);
}

TEST(BenchIo, RejectsSequentialElements) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"),
               BenchParseError);
}

TEST(BenchIo, RejectsCycle) {
  EXPECT_THROW(read_bench_string(R"(
    INPUT(a)
    OUTPUT(x)
    x = AND(a, y)
    y = NOT(x)
  )"),
               BenchParseError);
}

TEST(BenchIo, CycleDiagnosticListsFullPathWithLineNumbers) {
  try {
    read_bench_string(
        "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(z)\nz = BUF(x)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("x (line 3) -> y (line 4) -> z (line 5) -> x"),
              std::string::npos)
        << msg;
  }
}

TEST(BenchIo, RejectsDuplicateOutput) {
  try {
    read_bench_string("INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(":3:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate OUTPUT y"), std::string::npos) << msg;
  }
}

TEST(BenchIo, RejectsUndefinedNet) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"),
               BenchParseError);
}

TEST(BenchIo, RejectsUndefinedOutput) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n"),
               BenchParseError);
}

TEST(BenchIo, RejectsDuplicateDefinition) {
  EXPECT_THROW(read_bench_string(
                   "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"),
               BenchParseError);
}

TEST(BenchIo, RejectsRedefinedInput) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(a)\na = CONST1()\n"),
               BenchParseError);
}

TEST(BenchIo, RejectsGarbage) {
  EXPECT_THROW(read_bench_string("INPUT(a)\nOUTPUT(a)\nwhat is this\n"),
               BenchParseError);
}

TEST(BenchIo, ErrorsCarryLineNumbers) {
  try {
    read_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_NE(std::string(e.what()).find(":3:"), std::string::npos) << e.what();
  }
}

TEST(BenchIo, RoundTripPreservesFunction) {
  const Netlist original = make_c17();
  const Netlist copy = read_bench_string(write_bench_string(original));
  ASSERT_EQ(copy.inputs().size(), original.inputs().size());
  ASSERT_EQ(copy.outputs().size(), original.outputs().size());
  // Exhaustive functional equivalence over all 32 input combinations.
  const PatternSet all = PatternSet::exhaustive(original.inputs().size());
  WordSimulator s1(original, 1), s2(copy, 1);
  const auto& v1 = s1.run_blocks(all, 0, 1);
  const std::vector<std::uint64_t> out1 = [&] {
    std::vector<std::uint64_t> o;
    for (NodeId n : original.outputs()) o.push_back(v1[n]);
    return o;
  }();
  const auto& v2 = s2.run_blocks(all, 0, 1);
  const std::uint64_t mask = all.valid_mask(0);
  for (std::size_t i = 0; i < out1.size(); ++i)
    EXPECT_EQ(out1[i] & mask, v2[copy.outputs()[i]] & mask);
}

TEST(BenchIo, RoundTripIsByteStable) {
  // Definitions resolve in file order, so re-reading the writer's output
  // reproduces the exact node numbering: write∘read is the identity on the
  // emitted text.  100k gates exercises the reserve/string_view fast path.
  const Netlist net = make_random_circuit(stress_circuit_params(100'000));
  const std::string first = write_bench_string(net);
  const Netlist reread = read_bench_string(first);
  const std::string second = write_bench_string(reread);
  ASSERT_EQ(reread.size(), net.size());
  EXPECT_EQ(first, second);
  // And once more: the fixed point holds.
  EXPECT_EQ(write_bench_string(read_bench_string(second)), second);
}

TEST(BenchIo, WriterEmitsParsableTextForUnnamedNets) {
  Netlist net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_gate(GateType::Xor, {a, b});  // unnamed
  net.mark_output(c);
  net.finalize();
  const Netlist again = read_bench_string(write_bench_string(net));
  EXPECT_EQ(again.num_gates(), 1u);
  EXPECT_EQ(again.gate(again.outputs()[0]).type, GateType::Xor);
}

}  // namespace
}  // namespace protest
