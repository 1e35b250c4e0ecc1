// Cone utilities and joining points V(a,b) — the structural machinery of
// sect. 2 (fig. 2).
#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "netlist/cone.hpp"
#include "netlist/frontier.hpp"

namespace protest {
namespace {

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

// A diamond: s fans out to l and r, which reconverge at gate y.
struct Diamond {
  Netlist net;
  NodeId a, s, l, r, y;
};

Diamond make_diamond() {
  Diamond d;
  d.a = d.net.add_input("a");
  const NodeId b = d.net.add_input("b");
  d.s = d.net.add_gate(GateType::And, {d.a, b}, "s");
  d.l = d.net.add_gate(GateType::Not, {d.s}, "l");
  d.r = d.net.add_gate(GateType::Buf, {d.s}, "r");
  d.y = d.net.add_gate(GateType::And, {d.l, d.r}, "y");
  d.net.mark_output(d.y);
  d.net.finalize();
  return d;
}

TEST(Cone, TransitiveFaninIncludesRootsAndIsSorted) {
  const Diamond d = make_diamond();
  const NodeId roots[] = {d.y};
  const auto tfi = transitive_fanin(d.net, roots);
  EXPECT_EQ(tfi.size(), d.net.size());  // everything feeds y
  EXPECT_TRUE(std::is_sorted(tfi.begin(), tfi.end()));
}

TEST(Cone, TransitiveFaninHonorsDepthBound) {
  const Diamond d = make_diamond();
  const NodeId roots[] = {d.y};
  const auto tfi1 = transitive_fanin(d.net, roots, 1);
  EXPECT_TRUE(contains(tfi1, d.l));
  EXPECT_TRUE(contains(tfi1, d.r));
  EXPECT_FALSE(contains(tfi1, d.s));
  const auto tfi2 = transitive_fanin(d.net, roots, 2);
  EXPECT_TRUE(contains(tfi2, d.s));
  EXPECT_FALSE(contains(tfi2, d.a));
}

TEST(Cone, TransitiveFanoutReachesOutputs) {
  const Diamond d = make_diamond();
  const auto tfo = transitive_fanout(d.net, d.s);
  EXPECT_TRUE(contains(tfo, d.l));
  EXPECT_TRUE(contains(tfo, d.r));
  EXPECT_TRUE(contains(tfo, d.y));
  EXPECT_FALSE(contains(tfo, d.a));
}

TEST(Cone, TransitiveFanoutMatchesAscendingScan) {
  RandomCircuitParams params;
  params.num_inputs = 8;
  params.num_gates = 200;
  params.seed = 11;
  const Netlist net = make_random_circuit(params);
  for (NodeId root = 0; root < net.size(); ++root) {
    // Reference: a node is in the cone iff it is the root or one of its
    // fanins is; fanins precede their gates, so one ascending pass decides.
    std::vector<char> in(net.size(), 0);
    std::vector<NodeId> want;
    for (NodeId n = root; n < net.size(); ++n) {
      in[n] = n == root;
      for (const NodeId x : net.gate(n).fanin) in[n] |= in[x];
      if (in[n]) want.push_back(n);
    }
    EXPECT_EQ(transitive_fanout(net, root), want) << root;
  }
}

// --- the shared topological worklist ----------------------------------------

/// Pops until the frontier is empty.
std::vector<NodeId> drain(Frontier& fr) {
  std::vector<NodeId> out;
  while (!fr.empty()) out.push_back(fr.pop());
  return out;
}

TEST(Frontier, PopsAscendingAcrossWords) {
  Frontier fr(300);
  fr.start(5);
  for (const NodeId n : {250u, 70u, 64u, 6u, 199u, 63u}) fr.push(n);
  EXPECT_EQ(fr.pop(), 6u);
  fr.push(65);  // a consumer of the popped node, queued mid-sweep
  EXPECT_EQ(drain(fr), (std::vector<NodeId>{63, 64, 65, 70, 199, 250}));
}

TEST(Frontier, DuplicatePushIsQueuedOnce) {
  Frontier fr(128);
  fr.start(0);
  for (const NodeId n : {9u, 100u, 9u, 100u, 9u}) fr.push(n);
  EXPECT_EQ(drain(fr), (std::vector<NodeId>{9, 100}));
}

TEST(Frontier, ClearAfterAnAbandonedSweepLeavesTheNextStartClean) {
  Frontier fr(512);
  fr.start(10);
  for (const NodeId n : {20u, 130u, 400u}) fr.push(n);
  EXPECT_EQ(fr.pop(), 20u);
  fr.clear();  // abandoned with 130 and 400 still queued
  EXPECT_TRUE(fr.empty());
  fr.start(3);  // below the abandoned sweep's words
  fr.push(7);
  fr.push(200);
  EXPECT_EQ(drain(fr), (std::vector<NodeId>{7, 200}));
}

TEST(JoiningPoints, DiamondStemFound) {
  const Diamond d = make_diamond();
  const auto v = joining_points(d.net, d.l, d.r);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], d.s);
}

TEST(JoiningPoints, EmptyOnTree) {
  // y = AND(a, b): no fanout at all.
  Netlist net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId y = net.add_gate(GateType::And, {a, b}, "y");
  net.mark_output(y);
  net.finalize();
  EXPECT_TRUE(joining_points(net, a, b).empty());
}

TEST(JoiningPoints, DepthBoundExcludesDeepStems) {
  // Chain of inverters between the stem and the reconvergence.
  Netlist net;
  const NodeId a = net.add_input("a");
  NodeId l = net.add_gate(GateType::Not, {a}, "l1");
  for (int i = 0; i < 4; ++i)
    l = net.add_gate(GateType::Not, {l});
  const NodeId r = net.add_gate(GateType::Buf, {a}, "r");
  const NodeId y = net.add_gate(GateType::And, {l, r}, "y");
  net.mark_output(y);
  net.finalize();
  EXPECT_FALSE(joining_points(net, l, r).empty());
  // The left path is 5 levels deep; bounding at 2 must lose the stem.
  EXPECT_TRUE(joining_points(net, l, r, 2).empty());
}

TEST(JoiningPoints, SingleRootModeFindsReconvergenceOnSameNode) {
  // Both of x's branches lie on paths to y, so x is in V(y, y); the stem s
  // of the diamond itself is not (its branches sit downstream of s, not on
  // paths *to* s).
  const Diamond d = make_diamond();
  const auto v = joining_points(d.net, d.y, d.y);
  ASSERT_FALSE(v.empty());
  EXPECT_TRUE(contains(v, d.s));
  EXPECT_TRUE(joining_points(d.net, d.s, d.s).empty());
}

TEST(JoiningPoints, ConsumerPinCatchesDirectReconvergence) {
  // y = AND(a, NOT(a)): the stem a reconverges directly at y's pin.
  Netlist net;
  const NodeId a = net.add_input("a");
  const NodeId na = net.add_gate(GateType::Not, {a}, "na");
  const NodeId y = net.add_gate(GateType::And, {a, na}, "y");
  net.mark_output(y);
  net.finalize();
  const NodeId roots[] = {a, na};
  // Without the consumer the direct pin branch is invisible...
  EXPECT_TRUE(joining_points(net, roots, 0).empty());
  // ...with it, a is recognized as the joining point.
  const auto v = joining_points(net, roots, 0, y);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], a);
}

TEST(JoiningPoints, DuplicatedPinIsJoiningPoint) {
  // y = AND(a, a).
  Netlist net;
  const NodeId a = net.add_input("a");
  const NodeId y = net.add_gate(GateType::And, {a, a}, "y");
  net.mark_output(y);
  net.finalize();
  const NodeId roots[] = {a, a};
  const auto v = joining_points(net, roots, 0, y);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], a);
}

TEST(JoiningPoints, C17KnownStems) {
  // In c17, net 11 fans out to gates 16 and 19, and net 16 to 22 and 23.
  const Netlist net = make_c17();
  const NodeId n11 = net.find("11");
  const NodeId n16 = net.find("16");
  const NodeId g22 = net.find("22");
  const NodeId g23 = net.find("23");
  ASSERT_NE(n11, kNoNode);
  // 16 joins the cones of 22's inputs? 22 = NAND(10, 16); 10 = NAND(1,3),
  // 16 = NAND(2, 11): their cones share net 3 via 10 and 11.
  const auto v22 = joining_points(net, net.gate(g22).fanin, 0, g22);
  EXPECT_TRUE(contains(v22, net.find("3")));
  // 23 = NAND(16, 19); both cones contain stem 11.
  const auto v23 = joining_points(net, net.gate(g23).fanin, 0, g23);
  EXPECT_TRUE(contains(v23, n11));
  EXPECT_FALSE(contains(v23, n16));  // 16 is an input itself, not a stem between them
}

TEST(ConeWorkspace, ReusableAcrossQueries) {
  const Diamond d = make_diamond();
  ConeWorkspace ws(d.net);
  const NodeId roots1[] = {d.l, d.r};
  ws.compute(roots1, 0);
  EXPECT_FALSE(ws.joining_points(d.y).empty());
  const NodeId roots2[] = {d.a};
  ws.compute(roots2, 0);
  EXPECT_EQ(ws.cone().size(), 1u);
  EXPECT_TRUE(ws.joining_points().empty());
  EXPECT_EQ(ws.reach_mask(d.a), 1u);
  EXPECT_EQ(ws.reach_mask(d.y), 0u);
}

}  // namespace
}  // namespace protest
