// The one topological worklist, shared by the static fault analyzer's
// interval sweep, the fault simulator's FaultCone and transitive_fanout.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/gate.hpp"

namespace protest {

/// The pending consumers of one sweep: a bitset over node ids, popped
/// lowest id first.  Node ids are topological, so every id queued after a
/// pop lies above it — the scan cursor only moves forward, and the visit
/// order is exactly a min-heap's.
class Frontier {
 public:
  explicit Frontier(std::size_t num_nodes) : words_((num_nodes + 63) / 64) {}

  /// Starts a sweep whose queued ids all lie above `origin`.
  void start(NodeId origin) { lo_ = hi_ = origin / 64; }

  bool empty() const { return pending_ == 0; }

  void push(NodeId n) {
    const std::size_t w = n / 64;
    const std::uint64_t bit = std::uint64_t{1} << (n % 64);
    if ((words_[w] & bit) != 0) return;
    words_[w] |= bit;
    ++pending_;
    hi_ = std::max(hi_, w);
  }

  NodeId pop() {
    while (words_[lo_] == 0) ++lo_;
    const std::uint64_t word = words_[lo_];
    words_[lo_] = word & (word - 1);
    --pending_;
    const auto bit = static_cast<std::size_t>(std::countr_zero(word));
    return static_cast<NodeId>(lo_ * 64 + bit);
  }

  /// Drops what a truncated sweep left queued, touching only the words
  /// that sweep used.
  void clear() {
    std::fill(words_.begin() + static_cast<std::ptrdiff_t>(lo_),
              words_.begin() + static_cast<std::ptrdiff_t>(hi_ + 1), 0);
    pending_ = 0;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t lo_ = 0;  ///< no queued id lies below this word
  std::size_t hi_ = 0;  ///< nor above this one
  std::size_t pending_ = 0;
};

}  // namespace protest
