// Implication engine over the three-valued constant lattice: direct
// implications from gate semantics plus fixed-depth recursive learning of
// constant implications.
//
// `propagate_constants` (lint/fold) only sees constants that flow FORWARD
// from Const0/Const1 drivers.  This engine proves more nets constant by
// refutation: assume net n carries v, close the assumption under direct
// implications (forward gate evaluation AND backward justification — an
// AND whose output is 1 forces every fanin to 1, an OR whose output is 1
// with all-but-one fanin known 0 forces the last fanin to 1, ...), and if
// the closure contradicts a known constant then NO input vector gives n
// the value v, i.e. n is constant !v on every vector.  Recursive learning
// (depth >= 1) strengthens the closure at unjustified gates by case
// analysis: if both values of an undetermined fanin refute, the assumption
// refutes; if one value refutes, the other is implied and propagation
// continues.
//
// Everything here is a PROOF procedure: a conflict is only reported when
// the implications genuinely close, so learned constants are sound (the
// fault analyzer builds redundancy proofs on them).  Budgets (per-
// assumption step cap, total assumption cap) only make the engine give up
// early — "no conflict proven" — never unsound.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"

namespace protest {

struct ImplicationOptions {
  /// Recursive-learning depth: 0 = direct implications only, k >= 1 adds
  /// k levels of case analysis at unjustified gates.
  unsigned depth = 1;
  /// Per-assumption budget on gate examinations; a closure that would
  /// exceed it is abandoned inconclusively (sound: nothing is learned).
  std::size_t max_steps = 2048;
  /// Per-level cap on the unjustified gates case-analyzed by recursive
  /// learning (the closest ones to the assumption are tried first).
  std::size_t max_split_gates = 8;
  /// Total budget on assumptions across one learn_constants run; beyond
  /// it the remaining nodes simply stay unknown.
  std::size_t max_assumptions = 1u << 22;

  bool operator==(const ImplicationOptions&) const = default;
};

struct ImplicationStats {
  std::size_t assumptions = 0;   ///< refutation attempts (incl. recursive)
  std::size_t implications = 0;  ///< direct implications derived
  std::size_t conflicts = 0;     ///< closures that ended in contradiction
  std::size_t learned = 0;       ///< constants proven beyond the base lattice
};

/// Assumption/refutation engine over a finalized netlist and a base
/// constant lattice (-1 unknown, else the proven value — typically the
/// `propagate_constants` result).  Not thread-safe.
class ImplicationEngine {
 public:
  ImplicationEngine(const Netlist& net, std::vector<signed char> base,
                    ImplicationOptions opts = {});

  /// True iff assuming node = value provably contradicts the base
  /// constants under depth-bounded implications — a proof that the node
  /// never carries `value` on any input vector.  False means "no proof"
  /// (NOT "satisfiable").  The engine state is restored on return.
  bool proves_conflict(NodeId node, bool value);

  /// Adds a proven constant to the base lattice and re-closes the lattice
  /// forward (consumers of a newly-constant net may become constant too).
  void pin(NodeId node, bool value);

  const std::vector<signed char>& base() const { return base_; }
  const ImplicationStats& stats() const { return stats_; }

 private:
  bool assign(NodeId n, signed char v);  ///< false = conflict
  void enqueue(NodeId g);
  void clear_queue();
  /// Drains the examination queue; collects gates whose known output is
  /// not yet justified by their fanins.  Returns false on conflict.
  bool propagate(std::vector<NodeId>* unjustified);
  bool examine(NodeId gate, std::vector<NodeId>* unjustified);
  /// Implication closure + depth-bounded case analysis under the current
  /// assumption.  Returns false iff the assumption is refuted.
  bool close(unsigned depth);
  bool refute(NodeId node, bool value, unsigned depth);
  void undo_to(std::size_t mark);

  const Netlist& net_;
  ImplicationOptions opts_;
  std::vector<signed char> base_;  ///< proven constants (grows via pin)
  std::vector<signed char> val_;   ///< base_ + current assumption closure
  std::vector<NodeId> trail_;      ///< nodes assigned since the assumption
  std::vector<NodeId> queue_;      ///< gates awaiting examination
  std::vector<char> queued_;
  std::size_t qhead_ = 0;
  std::size_t steps_ = 0;
  bool exhausted_ = false;  ///< per-assumption step budget ran out
  ImplicationStats stats_;
};

/// The strengthened constant lattice: `propagate_constants` plus every
/// constant the implication engine can learn within the budgets.  Sound:
/// an entry != -1 is a proof the net carries that value on EVERY input
/// vector.
std::vector<signed char> learn_constants(const Netlist& net,
                                         const ImplicationOptions& opts = {},
                                         ImplicationStats* stats = nullptr);

}  // namespace protest
