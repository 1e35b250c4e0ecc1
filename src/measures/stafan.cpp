#include "measures/stafan.hpp"

#include <algorithm>
#include <bit>

#include "sim/word_sim.hpp"

namespace protest {
namespace {

/// Word of patterns in which toggling pin k would toggle the gate output.
std::uint64_t sensitized_word(const Netlist& net, NodeId gate, std::size_t k,
                              const std::vector<std::uint64_t>& vals) {
  const Gate& g = net.gate(gate);
  switch (g.type) {
    case GateType::And:
    case GateType::Nand: {
      std::uint64_t acc = ~std::uint64_t{0};
      for (std::size_t j = 0; j < g.fanin.size(); ++j)
        if (j != k) acc &= vals[g.fanin[j]];
      return acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      std::uint64_t acc = 0;
      for (std::size_t j = 0; j < g.fanin.size(); ++j)
        if (j != k) acc |= vals[g.fanin[j]];
      return ~acc;
    }
    default:
      return ~std::uint64_t{0};  // BUF/NOT/XOR/XNOR always sensitize
  }
}

}  // namespace

StafanMeasures compute_stafan(const Netlist& net, const PatternSet& ps) {
  StafanMeasures m;
  m.c1.assign(net.size(), 0.0);
  m.pin_sens.resize(net.size());
  for (NodeId n = 0; n < net.size(); ++n)
    m.pin_sens[n].assign(net.gate(n).fanin.size(), 0.0);

  WordSimulator sim(net, 1);
  std::vector<std::uint64_t> ones(net.size(), 0);
  std::vector<std::vector<std::uint64_t>> sens(net.size());
  for (NodeId n = 0; n < net.size(); ++n)
    sens[n].assign(net.gate(n).fanin.size(), 0);

  for (std::size_t b = 0; b < ps.num_blocks(); ++b) {
    const auto& vals = sim.run_blocks(ps, b, 1);
    const std::uint64_t mask = ps.valid_mask(b);
    for (NodeId n = 0; n < net.size(); ++n) {
      ones[n] += static_cast<std::uint64_t>(std::popcount(vals[n] & mask));
      const Gate& g = net.gate(n);
      for (std::size_t k = 0; k < g.fanin.size(); ++k)
        sens[n][k] += static_cast<std::uint64_t>(
            std::popcount(sensitized_word(net, n, k, vals) & mask));
    }
  }

  const double total = static_cast<double>(ps.num_patterns());
  for (NodeId n = 0; n < net.size(); ++n) {
    m.c1[n] = static_cast<double>(ones[n]) / total;
    for (std::size_t k = 0; k < m.pin_sens[n].size(); ++k)
      m.pin_sens[n][k] = static_cast<double>(sens[n][k]) / total;
  }

  // Backward observability through the measured sensitization frequencies.
  m.obs.assign(net.size(), 0.0);
  m.pin_obs.resize(net.size());
  for (NodeId n = 0; n < net.size(); ++n)
    m.pin_obs[n].assign(net.gate(n).fanin.size(), 0.0);

  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> consumers(net.size());
  for (NodeId c = 0; c < net.size(); ++c) {
    const auto& fanin = net.gate(c).fanin;
    for (std::size_t k = 0; k < fanin.size(); ++k)
      consumers[fanin[k]].push_back({c, static_cast<std::uint32_t>(k)});
  }

  for (NodeId n = net.size(); n-- > 0;) {
    double miss = net.is_output(n) ? 0.0 : 1.0;
    for (const auto& [c, k] : consumers[n]) miss *= 1.0 - m.pin_obs[c][k];
    m.obs[n] = std::clamp(1.0 - miss, 0.0, 1.0);
    for (std::size_t k = 0; k < m.pin_obs[n].size(); ++k)
      m.pin_obs[n][k] = std::clamp(m.obs[n] * m.pin_sens[n][k], 0.0, 1.0);
  }
  return m;
}

std::vector<double> stafan_detection_probs(const Netlist& net,
                                           std::span<const Fault> faults,
                                           const StafanMeasures& m) {
  std::vector<double> out;
  out.reserve(faults.size());
  for (const Fault& f : faults) {
    double c1, o;
    if (f.is_stem()) {
      c1 = m.c1[f.node];
      o = m.obs[f.node];
    } else {
      c1 = m.c1[net.gate(f.node).fanin[f.pin]];
      o = m.pin_obs[f.node][f.pin];
    }
    const double p1 = f.sa == StuckAt::Zero ? c1 : 1.0 - c1;
    out.push_back(std::clamp(p1 * o, 0.0, 1.0));
  }
  return out;
}

}  // namespace protest
