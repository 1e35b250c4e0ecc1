#include "sim/logic_sim.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>

#include "sim/word_sim.hpp"

namespace protest {

std::vector<bool> simulate_single(const Netlist& net,
                                  const std::vector<bool>& input_values) {
  if (!net.finalized())
    throw std::logic_error("simulate_single: netlist must be finalized");
  const auto inputs = net.inputs();
  if (input_values.size() != inputs.size())
    throw std::invalid_argument("simulate_single: input count mismatch");
  std::vector<bool> out(net.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    out[inputs[i]] = input_values[i];
  // eval_gate reads a span<const bool>, which std::vector<bool> cannot
  // expose: each gate's fanin values are gathered into a plain buffer.
  std::size_t max_fanin = 0;
  for (NodeId n = 0; n < net.size(); ++n)
    max_fanin = std::max(max_fanin, net.gate(n).fanin.size());
  const auto ins = std::make_unique<bool[]>(max_fanin);
  for (NodeId n = 0; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    if (g.type == GateType::Input) continue;
    for (std::size_t k = 0; k < g.fanin.size(); ++k) ins[k] = out[g.fanin[k]];
    out[n] = eval_gate(g.type, {ins.get(), g.fanin.size()});
  }
  return out;
}

std::vector<std::size_t> count_ones(const Netlist& net, const PatternSet& ps) {
  WordSimulator sim(net);
  std::vector<std::size_t> ones(net.size(), 0);
  const std::size_t W = sim.words_per_block();
  for (std::size_t b = 0; b < ps.num_blocks(); b += W) {
    const std::size_t wb = std::min(W, ps.num_blocks() - b);
    const auto& vals = sim.run_blocks(ps, b, wb);
    // All blocks but possibly the last are full; only the final word of
    // the final group needs masking.
    const bool partial =
        b + wb == ps.num_blocks() && ps.valid_mask(b + wb - 1) != ~std::uint64_t{0};
    for (NodeId n = 0; n < net.size(); ++n) {
      const std::uint64_t* v = vals.data() + std::size_t{n} * W;
      std::size_t acc = 0;
      for (std::size_t w = 0; w < wb; ++w)
        acc += static_cast<std::size_t>(std::popcount(v[w]));
      if (partial)
        acc -= static_cast<std::size_t>(std::popcount(
            v[wb - 1] & ~ps.valid_mask(b + wb - 1)));
      ones[n] += acc;
    }
  }
  return ones;
}

}  // namespace protest
