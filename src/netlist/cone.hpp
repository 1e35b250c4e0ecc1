// Structural cone utilities: transitive fanin/fanout and the joining-point
// sets V(a,b) of the paper (fig. 2) — the reconvergence stems that make
// exact signal-probability computation hard and that PROTEST conditions on.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace protest {

/// Nodes in the transitive fanin of `roots` (including the roots), limited
/// to `max_depth` backward steps (max_depth == 0 means unbounded).  Sorted
/// ascending (= topological order).
std::vector<NodeId> transitive_fanin(const Netlist& net,
                                     std::span<const NodeId> roots,
                                     unsigned max_depth = 0);

/// Nodes in the transitive fanout of `root` (including root), ascending:
/// the Frontier (netlist/frontier.hpp) pops them in that order.
std::vector<NodeId> transitive_fanout(const Netlist& net, NodeId root);

/// Lazy per-primary-input cache of transitive fanout cones — the work
/// lists of incremental single-coordinate re-evaluation.  Each cone is
/// computed on first request, under a lock, and kept for the cache's
/// lifetime; concurrent callers are safe.
class InputFanoutCones {
 public:
  explicit InputFanoutCones(const Netlist& net) : net_(net) {}

  /// Fanout cone of primary input `input_index` (including the input
  /// node), ascending (= topological).
  const std::vector<NodeId>& of(std::size_t input_index) const;

 private:
  const Netlist& net_;
  mutable std::mutex mu_;
  mutable std::vector<std::vector<NodeId>> cones_;  ///< sized once
};

/// Reusable scratch state for repeated bounded-cone queries; avoids
/// re-allocating netlist-sized arrays per gate (the estimator visits every
/// gate of circuits with 10^4+ nodes).
///
/// compute(roots, d) performs one bounded backward BFS per root (at most 32
/// roots) and records, per reached node, the bitmask of roots whose
/// depth-bounded TFI contains it.
class ConeWorkspace {
 public:
  explicit ConeWorkspace(const Netlist& net);

  void compute(std::span<const NodeId> roots, unsigned max_depth);

  /// Union of the bounded TFIs (including roots), ascending.
  const std::vector<NodeId>& cone() const { return cone_; }

  /// Bitmask of roots whose bounded TFI contains n (0 outside the cone).
  std::uint32_t reach_mask(NodeId n) const {
    return epoch_of_[n] == epoch_ ? mask_[n] : 0;
  }

  /// Joining points for the last compute(): stems with two distinct fanout
  /// branches leading to two different roots.  When `consumer` is given
  /// (the gate whose fanins are the roots), a branch that *is* the consumer
  /// counts as leading to every root wired to the matching pins — this
  /// catches direct reconvergence such as AND(a, NOT(a)).  Ascending order.
  std::vector<NodeId> joining_points(NodeId consumer = kNoNode) const;

  /// Superset of joining_points(): additionally includes stems whose
  /// branches reconverge on a *single* root (V(a,a) inside one fanin cone).
  /// The PROTEST estimator conditions on these too, because its conditional
  /// probabilities P(a_i | A_v) are obtained by independence propagation
  /// inside the cone — pinning intra-cone stems removes that error source.
  std::vector<NodeId> conditioning_points(NodeId consumer = kNoNode) const;

 private:
  const Netlist& net_;
  std::vector<std::uint32_t> mask_;
  std::vector<std::uint32_t> epoch_of_;
  std::vector<NodeId> cone_;
  std::vector<NodeId> roots_;
  std::uint32_t epoch_ = 0;
};

/// The joining points V(a,b): nodes k with at least two immediate
/// successors, one on a path to `a` and another (distinct branch) on a path
/// to `b`.  Paths are limited to `max_depth` backward steps when
/// max_depth > 0 (the MAXLIST parameter of the paper).  With a == b, the
/// stems whose branches reconverge on a.  Ascending order.
std::vector<NodeId> joining_points(const Netlist& net, NodeId a, NodeId b,
                                   unsigned max_depth = 0);

/// n-ary generalisation over the fanins of one gate; pass the gate itself
/// as `consumer` to include direct-pin reconvergence.
std::vector<NodeId> joining_points(const Netlist& net,
                                   std::span<const NodeId> roots,
                                   unsigned max_depth = 0,
                                   NodeId consumer = kNoNode);

}  // namespace protest
