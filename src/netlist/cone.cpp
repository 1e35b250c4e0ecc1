#include "netlist/cone.hpp"

#include <algorithm>
#include <bit>

#include "netlist/compiled.hpp"
#include "netlist/frontier.hpp"

namespace protest {

std::vector<NodeId> transitive_fanin(const Netlist& net,
                                     std::span<const NodeId> roots,
                                     unsigned max_depth) {
  ConeWorkspace ws(net);
  ws.compute(roots, max_depth);
  return ws.cone();
}

std::vector<NodeId> transitive_fanout(const Netlist& net, NodeId root) {
  Frontier frontier(net.size());
  frontier.start(root);
  frontier.push(root);
  std::vector<NodeId> out;
  while (!frontier.empty()) {
    const NodeId n = frontier.pop();
    out.push_back(n);
    for (const NodeId s : net.fanout(n)) frontier.push(s);
  }
  return out;
}

const std::vector<NodeId>& InputFanoutCones::of(
    std::size_t input_index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (cones_.empty()) cones_.resize(net_.inputs().size());
  std::vector<NodeId>& cone = cones_[input_index];
  // A cone always contains its root, so empty doubles as "not computed".
  if (cone.empty()) cone = transitive_fanout(net_, net_.inputs()[input_index]);
  return cone;
}

ConeWorkspace::ConeWorkspace(const Netlist& net)
    : net_(net), mask_(net.size(), 0), epoch_of_(net.size(), 0) {}

void ConeWorkspace::compute(std::span<const NodeId> roots, unsigned max_depth) {
  ++epoch_;
  cone_.clear();
  roots_.assign(roots.begin(), roots.end());
  const std::size_t nroots = std::min<std::size_t>(roots.size(), 32);

  // One BFS per root; BFS order reaches every node at its minimal depth
  // first, so the depth bound is honored per root.
  std::vector<std::pair<NodeId, unsigned>> queue;
  for (std::size_t i = 0; i < nroots; ++i) {
    const std::uint32_t bit = std::uint32_t{1} << i;
    queue.clear();
    std::size_t head = 0;
    auto visit = [&](NodeId n, unsigned d) {
      if (epoch_of_[n] != epoch_) {
        epoch_of_[n] = epoch_;
        mask_[n] = 0;
        cone_.push_back(n);
      }
      if (mask_[n] & bit) return false;
      mask_[n] |= bit;
      queue.emplace_back(n, d);
      return true;
    };
    visit(roots[i], 0);
    const CompiledNetlist& cn = net_.compiled();
    while (head < queue.size()) {
      const auto [n, d] = queue[head++];
      if (max_depth != 0 && d >= max_depth) continue;
      for (NodeId f : cn.fanin(n)) visit(f, d + 1);
    }
  }
  std::sort(cone_.begin(), cone_.end());
}

std::vector<NodeId> ConeWorkspace::conditioning_points(NodeId consumer) const {
  std::vector<NodeId> result;
  for (NodeId s : cone_) {
    const auto branches = net_.fanout(s);
    if (branches.size() < 2) continue;
    std::uint32_t consumer_pin_mask = 0;
    if (consumer != kNoNode) {
      const auto fanin = net_.compiled().fanin(consumer);
      for (std::size_t i = 0; i < std::min<std::size_t>(fanin.size(), 32); ++i)
        if (fanin[i] == s) consumer_pin_mask |= std::uint32_t{1} << i;
    }
    // Any two distinct branch instances on paths into the cone qualify —
    // same-root reconvergence included.
    int nonzero = 0;
    for (NodeId t : branches) {
      std::uint32_t m = reach_mask(t);
      if (consumer != kNoNode && t == consumer) m |= consumer_pin_mask;
      if (m != 0 && ++nonzero >= 2) break;
    }
    if (nonzero >= 2) result.push_back(s);
  }
  return result;
}

std::vector<NodeId> ConeWorkspace::joining_points(NodeId consumer) const {
  // Root bits for branches that are the consumer itself: branch via pin i
  // counts as "leads to root i".
  std::uint32_t consumer_pin_mask_for = 0;  // computed per stem below
  std::vector<NodeId> result;
  for (NodeId s : cone_) {
    const auto branches = net_.fanout(s);
    if (branches.size() < 2) continue;
    if (consumer != kNoNode) {
      consumer_pin_mask_for = 0;
      const auto fanin = net_.compiled().fanin(consumer);
      for (std::size_t i = 0; i < std::min<std::size_t>(fanin.size(), 32); ++i)
        if (fanin[i] == s) consumer_pin_mask_for |= std::uint32_t{1} << i;
    }
    // Collect branch masks; qualify if two distinct branch instances lead
    // to two different roots: m1 != 0, m2 != 0, popcount(m1|m2) >= 2.
    bool qualifies = false;
    std::uint32_t seen_any = 0;   // union of masks of earlier branches
    int nonzero_branches = 0;
    for (NodeId t : branches) {
      std::uint32_t m = reach_mask(t);
      if (consumer != kNoNode && t == consumer) m |= consumer_pin_mask_for;
      if (m == 0) continue;
      if (nonzero_branches >= 1 && std::popcount(seen_any | m) >= 2) {
        qualifies = true;
        break;
      }
      seen_any |= m;
      ++nonzero_branches;
    }
    if (qualifies) result.push_back(s);
  }
  return result;
}

std::vector<NodeId> joining_points(const Netlist& net,
                                   std::span<const NodeId> roots,
                                   unsigned max_depth, NodeId consumer) {
  ConeWorkspace ws(net);
  ws.compute(roots, max_depth);
  return ws.joining_points(consumer);
}

std::vector<NodeId> joining_points(const Netlist& net, NodeId a, NodeId b,
                                   unsigned max_depth) {
  if (a == b) {
    // Single-root mode: stems with two distinct branches both reaching a.
    ConeWorkspace ws(net);
    const NodeId roots[1] = {a};
    ws.compute(roots, max_depth);
    std::vector<NodeId> result;
    for (NodeId s : ws.cone()) {
      const auto branches = net.fanout(s);
      if (branches.size() < 2) continue;
      int reaching = 0;
      for (NodeId t : branches)
        if (ws.reach_mask(t)) ++reaching;
      if (reaching >= 2) result.push_back(s);
    }
    return result;
  }
  const NodeId roots[2] = {a, b};
  return joining_points(net, std::span<const NodeId>(roots, 2), max_depth);
}

}  // namespace protest
