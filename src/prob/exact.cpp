#include "prob/exact.hpp"

#include <stdexcept>

#include "prob/naive.hpp"
#include "sim/word_sim.hpp"
#include "sim/pattern.hpp"

namespace protest {

std::vector<Bdd::Ref> build_node_bdds(const Netlist& net, Bdd& bdd) {
  if (bdd.num_vars() != net.inputs().size())
    throw std::invalid_argument("build_node_bdds: BDD variable count mismatch");
  std::vector<Bdd::Ref> f(net.size(), bdd.zero());
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    f[inputs[i]] = bdd.var(static_cast<unsigned>(i));

  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    switch (g.type) {
      case GateType::Input: break;
      case GateType::Const0: f[n] = bdd.zero(); break;
      case GateType::Const1: f[n] = bdd.one(); break;
      case GateType::Buf: f[n] = f[g.fanin[0]]; break;
      case GateType::Not: f[n] = bdd.apply_not(f[g.fanin[0]]); break;
      case GateType::And:
      case GateType::Nand: {
        Bdd::Ref acc = bdd.one();
        for (NodeId a : g.fanin) acc = bdd.apply_and(acc, f[a]);
        f[n] = g.type == GateType::Nand ? bdd.apply_not(acc) : acc;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        Bdd::Ref acc = bdd.zero();
        for (NodeId a : g.fanin) acc = bdd.apply_or(acc, f[a]);
        f[n] = g.type == GateType::Nor ? bdd.apply_not(acc) : acc;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        Bdd::Ref acc = bdd.zero();
        for (NodeId a : g.fanin) acc = bdd.apply_xor(acc, f[a]);
        f[n] = g.type == GateType::Xnor ? bdd.apply_not(acc) : acc;
        break;
      }
    }
  }
  return f;
}

std::vector<double> exact_signal_probs_bdd(const Netlist& net,
                                           std::span<const double> input_probs,
                                           std::size_t node_limit) {
  validate_input_probs(net, input_probs);
  Bdd bdd(static_cast<unsigned>(net.inputs().size()), node_limit);
  const auto f = build_node_bdds(net, bdd);
  std::vector<double> p(net.size());
  for (NodeId n = 0; n < net.size(); ++n) p[n] = bdd.sat_prob(f[n], input_probs);
  return p;
}

std::vector<double> exact_signal_probs_enum(const Netlist& net,
                                            std::span<const double> input_probs) {
  validate_input_probs(net, input_probs);
  const std::size_t ni = net.inputs().size();
  if (ni > 24)
    throw std::invalid_argument("exact_signal_probs_enum: > 24 inputs");
  const std::size_t total = std::size_t{1} << ni;

  const PatternSet all = PatternSet::exhaustive(ni);
  WordSimulator sim(net, 1);
  std::vector<double> p(net.size(), 0.0);
  for (std::size_t b = 0; b < all.num_blocks(); ++b) {
    const auto& vals = sim.run_blocks(all, b, 1);
    const std::uint64_t mask = all.valid_mask(b);
    for (std::size_t bit = 0; bit < 64; ++bit) {
      if (!((mask >> bit) & 1u)) break;
      const std::size_t pat = b * 64 + bit;
      if (pat >= total) break;
      double w = 1.0;
      for (std::size_t i = 0; i < ni; ++i)
        w *= ((pat >> i) & 1u) ? input_probs[i] : 1.0 - input_probs[i];
      if (w == 0.0) continue;
      for (NodeId n = 0; n < net.size(); ++n)
        if ((vals[n] >> bit) & 1u) p[n] += w;
    }
  }
  return p;
}

}  // namespace protest
