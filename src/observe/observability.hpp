// Observability propagation s(x) of sect. 3: the probability that a
// sensitized path runs from pin x to some primary output, computed
// backwards in linear time from per-node signal probabilities.
//
// Stem combination (output pin x driving input pins x1..xm):
//   model A (paper default):  s(x) = s(x1) (*) ... (*) s(xm),
//                             t (*) y = t + y - 2ty
//   model B ("alternative model for circuits with a large number of
//   primary outputs"):        s(x) = 1 - (1-s(x1))...(1-s(xm))
//
// Gate transfer (gate f with output x, input pin e_i):
//   s(e_i) = s(x) * ( f(..,p_{e_i}=0,..) (*) f(..,p_{e_i}=1,..) )
// evaluated on the arithmetic (multilinear) form of f.  This "very simple
// modeling of the signal flow" is what causes the documented systematic
// under-estimation on multi-path circuits (fig. 6); the exact per-gate
// Boolean difference is available as an alternative transfer model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace protest {

enum class StemModel {
  XorChain,  ///< model A: t + y - 2ty fold over branches
  OrChain,   ///< model B: 1 - prod(1 - s_i)
};

enum class TransferModel {
  PaperArithmetic,    ///< f0 (*) f1 on the arithmetic form (paper formula)
  BooleanDifference,  ///< exact P(df/de_i) under pin independence
};

struct ObservabilityOptions {
  /// Library default is model B: on the paper's own circuits it reproduces
  /// Table 1 (ALU C=0.97, MULT C~0.9 with the fig. 6 under-estimation
  /// bias), while model A's pairwise cancellation over-penalizes stems
  /// with many branches (measured in bench/table1_correlation).
  StemModel stem = StemModel::OrChain;
  /// On the TTL-style netlists PROTEST analyzed (no XOR primitives) the
  /// paper formula coincides with the exact Boolean difference.
  TransferModel transfer = TransferModel::PaperArithmetic;
};

/// Per-pin observabilities in one flat array indexed like
/// CompiledNetlist::fanin_offsets(): pin[n] is a span over gate n's input
/// pins (empty for inputs/constants), so pin[n][k] reads pin k of gate n.
struct PinObservability {
  std::vector<std::uint32_t> offset;  ///< [nodes + 1]
  std::vector<double> values;         ///< every gate's pins, in node order

  std::span<const double> operator[](NodeId n) const {
    return {values.data() + offset[n], offset[n + 1] - offset[n]};
  }
};

/// Observability of every output stem and every gate input pin.
struct Observability {
  /// s of node n's output stem.
  std::vector<double> stem;
  /// s of gate n's input pin k: pin[n][k].
  PinObservability pin;
};

/// node_probs must hold one signal probability per node (any engine).
Observability compute_observability(const Netlist& net,
                                    std::span<const double> node_probs,
                                    ObservabilityOptions opts = {});

/// The sensitization factor of one gate from input pin k, i.e. the
/// probability multiplier applied to s(output): PaperArithmetic gives
/// f0 (*) f1, BooleanDifference gives P(f toggles when pin k toggles).
double gate_transfer(const Netlist& net, NodeId gate, std::size_t pin,
                     std::span<const double> node_probs, TransferModel model);

}  // namespace protest
