#include "sim/signature.hpp"

#include <bit>
#include <span>
#include <vector>

#include "sim/fault_sim.hpp"
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

/// Clocks the valid patterns of one block into `misr`; `word(o)` is output
/// o's block word, and output i drives stage i mod width.
template <typename Word>
void clock_block(Misr& misr, const Netlist& net, std::uint64_t mask,
                 Word word) {
  const std::span<const NodeId> outputs = net.outputs();
  for (std::size_t bit = 0; bit < 64 && ((mask >> bit) & 1u) != 0; ++bit) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < outputs.size(); ++i)
      w ^= ((word(outputs[i]) >> bit) & 1u) << (i % misr.width());
    misr.clock(w);
  }
}

}  // namespace

std::uint64_t good_signature(const Netlist& net, const PatternSet& ps,
                             unsigned width, std::uint64_t init) {
  WordSimulator sim(net, 1);
  Misr misr(width, init);
  for (std::size_t b = 0; b < ps.num_blocks(); ++b) {
    const auto& good = sim.run_blocks(ps, b, 1);
    clock_block(misr, net, ps.valid_mask(b),
                [&](NodeId o) { return good[o]; });
  }
  return misr.state();
}

BistResult signature_bist(const Netlist& net, std::span<const Fault> faults,
                          const PatternSet& ps, unsigned width,
                          std::uint64_t init) {
  WordSimulator sim(net, 1);
  FaultCone cone(net);
  Misr good_misr(width, init);
  std::vector<Misr> misrs(faults.size(), good_misr);
  std::vector<std::uint64_t> detected(faults.size(), 0);
  for (std::size_t b = 0; b < ps.num_blocks(); ++b) {
    const auto& good = sim.run_blocks(ps, b, 1);
    const std::uint64_t mask = ps.valid_mask(b);
    clock_block(good_misr, net, mask, [&](NodeId o) { return good[o]; });
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      detected[fi] |= cone.inject(faults[fi], good) & mask;
      clock_block(misrs[fi], net, mask,
                  [&](NodeId o) { return cone.value(o, good); });
    }
  }

  BistResult r;
  r.faults = faults.size();
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const bool by_outputs = detected[fi] != 0;
    const bool by_signature = misrs[fi].state() != good_misr.state();
    r.detected_by_outputs += by_outputs;
    r.detected_by_signature += by_signature;
    r.aliased += by_outputs && !by_signature;
  }
  return r;
}

}  // namespace protest
