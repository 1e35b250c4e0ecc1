#include "observe/observability.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/compiled.hpp"

namespace protest {
namespace {

double xor_comb(double t, double y) { return t + y - 2.0 * t * y; }

/// The transfer of gate type `type` from pin `pin`, with the gate's pin
/// probabilities in `ins` (left as found).
double transfer(GateType type, std::span<double> ins, std::size_t pin,
                TransferModel model) {
  if (model == TransferModel::BooleanDifference) {
    // Exact Boolean-difference probability for the standard gate library:
    // AND/NAND toggle iff all other pins are 1; OR/NOR iff all other 0;
    // XOR/XNOR/NOT/BUF always toggle.
    switch (type) {
      case GateType::And:
      case GateType::Nand: {
        double acc = 1.0;
        for (std::size_t j = 0; j < ins.size(); ++j)
          if (j != pin) acc *= ins[j];
        return acc;
      }
      case GateType::Or:
      case GateType::Nor: {
        double acc = 1.0;
        for (std::size_t j = 0; j < ins.size(); ++j)
          if (j != pin) acc *= 1.0 - ins[j];
        return acc;
      }
      case GateType::Buf:
      case GateType::Not:
      case GateType::Xor:
      case GateType::Xnor:
        return 1.0;
      default:
        throw std::logic_error("gate_transfer: gate without inputs");
    }
  }

  // Paper formula: evaluate the arithmetic form with the pin pinned to 0
  // and to 1, then combine with t (*) y = t + y - 2ty.
  const double held = ins[pin];
  ins[pin] = 0.0;
  const double f0 = eval_gate_prob(type, ins);
  ins[pin] = 1.0;
  const double f1 = eval_gate_prob(type, ins);
  ins[pin] = held;
  return xor_comb(f0, f1);
}

/// Calls fold(s) for every branch of stem n in (consumer, pin) order:
/// fanout(n) lists the consumers ascending, once per pin that reads n.
template <class Fold>
void fold_branches(const Netlist& net, const CompiledNetlist& cn,
                   const PinObservability& pins, NodeId n, Fold fold) {
  NodeId prev = kNoNode;
  std::size_t k = 0;
  for (const NodeId c : net.fanout(n)) {
    const std::span<const NodeId> fanin = cn.fanin(c);
    k = c == prev ? k + 1 : 0;
    while (fanin[k] != n) ++k;
    prev = c;
    fold(pins[c][k]);
  }
}

}  // namespace

double gate_transfer(const Netlist& net, NodeId gate, std::size_t pin,
                     std::span<const double> node_probs, TransferModel model) {
  const Gate& g = net.gate(gate);
  if (pin >= g.fanin.size())
    throw std::invalid_argument("gate_transfer: pin index out of range");
  std::vector<double> ins(g.fanin.size());
  for (std::size_t j = 0; j < g.fanin.size(); ++j)
    ins[j] = node_probs[g.fanin[j]];
  return transfer(g.type, ins, pin, model);
}

Observability compute_observability(const Netlist& net,
                                    std::span<const double> node_probs,
                                    ObservabilityOptions opts) {
  if (node_probs.size() != net.size())
    throw std::invalid_argument("compute_observability: need one probability per node");

  const CompiledNetlist& cn = net.compiled();
  const std::span<const std::uint32_t> offset = cn.fanin_offsets();
  Observability obs;
  obs.stem.assign(net.size(), 0.0);
  obs.pin.offset.assign(offset.begin(), offset.end());
  obs.pin.values.assign(offset.back(), 0.0);
  std::vector<double> ins(cn.max_fanin());  // every gate's transfer buffer

  // Backward sweep: node ids are topologically ordered, so descending ids
  // visit every consumer before its producers.
  for (NodeId n = net.size(); n-- > 0;) {
    // 1) Combine the stem observability of n from its branches.  A primary
    // output pin contributes a branch with s = 1.
    double s;
    const bool po = net.is_output(n);
    if (opts.stem == StemModel::XorChain) {
      s = po ? 1.0 : 0.0;
      fold_branches(net, cn, obs.pin, n,
                    [&](double branch) { s = xor_comb(s, branch); });
    } else {
      double miss = po ? 0.0 : 1.0;
      fold_branches(net, cn, obs.pin, n,
                    [&](double branch) { miss *= 1.0 - branch; });
      s = 1.0 - miss;
    }
    obs.stem[n] = std::clamp(s, 0.0, 1.0);

    // 2) Push through the gate to its input pins.
    const std::span<const NodeId> fanin = cn.fanin(n);
    const std::span<double> in(ins.data(), fanin.size());
    for (std::size_t k = 0; k < fanin.size(); ++k) in[k] = node_probs[fanin[k]];
    double* const pin = obs.pin.values.data() + offset[n];
    for (std::size_t k = 0; k < fanin.size(); ++k)
      pin[k] = std::clamp(
          obs.stem[n] * transfer(cn.type(n), in, k, opts.transfer), 0.0, 1.0);
  }
  return obs;
}

}  // namespace protest
