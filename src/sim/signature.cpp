#include "sim/signature.hpp"

#include <bit>
#include <stdexcept>

#include "sim/lfsr.hpp"
#include "sim/word_sim.hpp"

namespace protest {

Misr::Misr(unsigned width, std::uint64_t init)
    : width_(width),
      mask_(width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1),
      taps_(Lfsr::taps_for(width)),
      state_(init & mask_) {}

void Misr::clock(std::uint64_t inputs) {
  const auto feedback =
      static_cast<std::uint64_t>(std::popcount(state_ & taps_) & 1);
  state_ = (((state_ << 1) | feedback) ^ inputs) & mask_;
}

namespace {

/// Packs the primary-output values of pattern `bit` of a block into a MISR
/// input word (output i drives stage i mod width).
std::uint64_t pack_outputs(const Netlist& net,
                           const std::vector<std::uint64_t>& vals,
                           std::size_t bit, unsigned width) {
  std::uint64_t w = 0;
  unsigned stage = 0;
  for (NodeId o : net.outputs()) {
    w ^= ((vals[o] >> bit) & 1u) << stage;
    stage = (stage + 1) % width;
  }
  return w;
}

/// Full-array faulty evaluation of one block (validation-grade: O(circuit)).
void faulty_block(const Netlist& net, const Fault& f,
                  const std::vector<std::uint64_t>& good,
                  std::vector<std::uint64_t>& out) {
  out = good;
  std::vector<std::uint64_t> ins;
  const std::uint64_t forced = f.sa == StuckAt::One ? ~std::uint64_t{0} : 0;
  for (NodeId n = f.node; n < net.size(); ++n) {
    const Gate& g = net.gate(n);
    if (n == f.node) {
      if (f.is_stem()) {
        out[n] = forced;
      } else {
        ins.clear();
        for (std::size_t k = 0; k < g.fanin.size(); ++k)
          ins.push_back(static_cast<int>(k) == f.pin ? forced
                                                     : out[g.fanin[k]]);
        out[n] = eval_gate_word(g.type, ins);
      }
      continue;
    }
    if (g.type == GateType::Input) continue;
    ins.clear();
    for (NodeId x : g.fanin) ins.push_back(out[x]);
    out[n] = eval_gate_word(g.type, ins);
  }
}

}  // namespace

std::uint64_t good_signature(const Netlist& net, const PatternSet& ps,
                             unsigned width, std::uint64_t init) {
  WordSimulator sim(net, 1);
  Misr misr(width, init);
  for (std::size_t b = 0; b < ps.num_blocks(); ++b) {
    const auto& vals = sim.run_blocks(ps, b, 1);
    const std::uint64_t mask = ps.valid_mask(b);
    for (std::size_t bit = 0; bit < 64; ++bit) {
      if (!((mask >> bit) & 1u)) break;
      misr.clock(pack_outputs(net, vals, bit, width));
    }
  }
  return misr.state();
}

BistResult signature_bist(const Netlist& net, std::span<const Fault> faults,
                          const PatternSet& ps, unsigned width,
                          std::uint64_t init) {
  // Precompute the good values of every block once.
  WordSimulator sim(net, 1);
  std::vector<std::vector<std::uint64_t>> good_blocks;
  good_blocks.reserve(ps.num_blocks());
  for (std::size_t b = 0; b < ps.num_blocks(); ++b)
    good_blocks.push_back(sim.run_blocks(ps, b, 1));

  Misr good_misr(width, init);
  for (std::size_t b = 0; b < ps.num_blocks(); ++b) {
    const std::uint64_t mask = ps.valid_mask(b);
    for (std::size_t bit = 0; bit < 64; ++bit) {
      if (!((mask >> bit) & 1u)) break;
      good_misr.clock(pack_outputs(net, good_blocks[b], bit, width));
    }
  }

  BistResult r;
  r.faults = faults.size();
  std::vector<std::uint64_t> fvals;
  for (const Fault& f : faults) {
    Misr misr(width, init);
    bool any_diff = false;
    for (std::size_t b = 0; b < ps.num_blocks(); ++b) {
      faulty_block(net, f, good_blocks[b], fvals);
      const std::uint64_t mask = ps.valid_mask(b);
      for (NodeId o : net.outputs())
        any_diff |= ((fvals[o] ^ good_blocks[b][o]) & mask) != 0;
      for (std::size_t bit = 0; bit < 64; ++bit) {
        if (!((mask >> bit) & 1u)) break;
        misr.clock(pack_outputs(net, fvals, bit, width));
      }
    }
    const bool sig_diff = misr.state() != good_misr.state();
    r.detected_by_outputs += any_diff;
    r.detected_by_signature += sig_diff;
    r.aliased += any_diff && !sig_diff;
  }
  return r;
}

}  // namespace protest
