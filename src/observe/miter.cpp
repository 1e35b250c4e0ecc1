#include "observe/miter.hpp"

#include <algorithm>

#include "netlist/compiled.hpp"
#include "prob/engine.hpp"
#include "prob/exact.hpp"
#include "prob/naive.hpp"

namespace protest {

Netlist build_fault_miter(const Netlist& net, const Fault& f) {
  const CompiledNetlist& cn = net.compiled();
  Netlist m;
  m.reserve(2 * net.size() + net.outputs().size() + 2);
  // Good copy (identical node ids, since construction order is preserved).
  std::vector<NodeId> good(net.size());
  for (NodeId n = 0; n < net.size(); ++n) {
    const auto fanin = cn.fanin(n);
    if (cn.type(n) == GateType::Input) {
      good[n] = m.add_input(net.gate(n).name);
    } else {
      good[n] = m.add_gate(cn.type(n), {fanin.begin(), fanin.end()}, {});
    }
  }

  // Faulty copy of the fanout cone of the fault site: the site, then every
  // later node that reads a faulty copy.  A plain ascending scan, so the
  // miter shares no cone walker with the fault simulator it checks.
  std::vector<NodeId> faulty(net.size(), kNoNode);
  const NodeId forced =
      m.add_gate(f.sa == StuckAt::One ? GateType::Const1 : GateType::Const0, {});
  for (NodeId n = f.node; n < net.size(); ++n) {
    const auto fanin = cn.fanin(n);
    std::vector<NodeId> fi;
    if (n == f.node) {
      if (f.is_stem()) {
        faulty[n] = forced;
        continue;
      }
      // Branch fault: re-instantiate the gate with the faulty pin forced.
      for (std::size_t k = 0; k < fanin.size(); ++k)
        fi.push_back(static_cast<int>(k) == f.pin ? forced : good[fanin[k]]);
    } else {
      if (std::none_of(fanin.begin(), fanin.end(),
                       [&](NodeId x) { return faulty[x] != kNoNode; }))
        continue;
      for (NodeId x : fanin)
        fi.push_back(faulty[x] != kNoNode ? faulty[x] : good[x]);
    }
    faulty[n] = m.add_gate(cn.type(n), std::move(fi), {});
  }

  // XOR each affected primary output with its good twin; OR them together.
  std::vector<NodeId> xors;
  for (NodeId o : net.outputs()) {
    if (faulty[o] == kNoNode) continue;  // output unreachable from the fault
    xors.push_back(m.add_gate(GateType::Xor, {good[o], faulty[o]}, {}));
  }
  NodeId root;
  if (xors.empty()) {
    root = m.add_gate(GateType::Const0, {});  // undetectable by structure
  } else if (xors.size() == 1) {
    root = xors[0];
  } else {
    root = m.add_gate(GateType::Or, xors, {});
  }
  m.mark_output(root);
  m.finalize();
  return m;
}

double exact_detection_prob_bdd(const Netlist& net, const Fault& f,
                                std::span<const double> input_probs,
                                std::size_t node_limit) {
  validate_input_probs(net, input_probs);
  const Netlist m = build_fault_miter(net, f);
  Bdd bdd(static_cast<unsigned>(m.inputs().size()), node_limit);
  const auto fs = build_node_bdds(m, bdd);
  return bdd.sat_prob(fs[m.outputs()[0]], input_probs);
}

double estimated_detection_prob_miter(const Netlist& net, const Fault& f,
                                      std::span<const double> input_probs,
                                      ProtestParams params) {
  const Netlist m = build_fault_miter(net, f);
  const ProtestEngine est(m, params);
  return est.signal_probs(input_probs)[m.outputs()[0]];
}

}  // namespace protest
