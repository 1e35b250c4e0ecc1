#include "prob/naive.hpp"

#include <stdexcept>

#include "netlist/cone.hpp"

namespace protest {

InputProbs uniform_input_probs(const Netlist& net, double p) {
  return InputProbs(net.inputs().size(), p);
}

void validate_input_probs(const Netlist& net, std::span<const double> probs) {
  if (probs.size() != net.inputs().size())
    throw std::invalid_argument("input probability tuple has wrong arity");
  for (double p : probs)
    if (!(p >= 0.0 && p <= 1.0))
      throw std::invalid_argument("input probability outside [0,1]");
}

void validate_perturb_args(const Netlist& net,
                           std::span<const double> base_inputs,
                           std::span<const double> base_node_probs,
                           std::size_t input_index, double new_p) {
  validate_input_probs(net, base_inputs);
  if (base_node_probs.size() != net.size())
    throw std::invalid_argument(
        "perturb: base node probabilities have wrong size");
  if (input_index >= net.inputs().size())
    throw std::invalid_argument(
        "perturb: input index out of range");
  if (!(new_p >= 0.0 && new_p <= 1.0))
    throw std::invalid_argument(
        "perturb: probability outside [0,1]");
}

std::vector<double> naive_signal_probs(const Netlist& net,
                                       std::span<const double> input_probs) {
  validate_input_probs(net, input_probs);
  std::vector<double> p(net.size(), 0.0);
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) p[inputs[i]] = input_probs[i];
  std::vector<double> ins;
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    if (g.type == GateType::Input) continue;
    ins.clear();
    for (NodeId f : g.fanin) ins.push_back(p[f]);
    p[n] = eval_gate_prob(g.type, ins);
  }
  return p;
}

bool is_fanout_reconvergence_free(const Netlist& net) {
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    if (g.fanin.size() < 2) continue;
    if (!joining_points(net, g.fanin, 0).empty()) return false;
  }
  return true;
}

}  // namespace protest
