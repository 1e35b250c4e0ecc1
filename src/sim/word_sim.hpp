// Multi-word bit-parallel logic simulation over the columnar netlist view:
// one run() evaluates W x 64 patterns for every node (W = words_per_block,
// default 8 — 512 patterns per pass).
//
// Layout: node-major value store, W consecutive words per node
// (values()[n * W + w]).  A gate evaluation reads W contiguous words per
// fanin and writes W contiguous words — with W = 4 that is exactly one
// AVX2 vector, with W = 8 one cache line — so the AND/OR/XOR reduction
// kernels auto-vectorize, and explicit SIMD paths are used where
// __AVX2__ / __ARM_NEON are available.  The per-gate type dispatch is
// hoisted out of the gate loop entirely: evaluation walks the compiled
// view's same-type runs (CompiledNetlist::runs()) with one tight kernel
// per run.
//
// This is the repo's one logic simulator.  Per-block callers (fault
// simulation, STAFAN, signatures, exact enumeration) run it at W = 1,
// where values()[n] is node n's word; the Monte-Carlo shard loop,
// count_ones and the throughput benches run it at W >= 4.  Its
// independent reference is simulate_single (sim/logic_sim.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"
#include "sim/pattern.hpp"

namespace protest {

class WordSimulator {
 public:
  /// 8 x 64 = 512 patterns per pass: one cache line of values per node,
  /// the empirical sweet spot on the throughput bench.
  static constexpr std::size_t kDefaultWordsPerBlock = 8;
  static constexpr std::size_t kMaxWordsPerBlock = 64;

  /// Throws std::invalid_argument unless 1 <= words_per_block <= 64.
  /// Widths {1, 2, 4, 8, 16} run fully specialized kernels; other widths
  /// fall back to a runtime-width loop.
  explicit WordSimulator(const Netlist& net,
                         std::size_t words_per_block = kDefaultWordsPerBlock);

  const Netlist& netlist() const { return net_; }
  std::size_t words_per_block() const { return words_; }
  std::size_t patterns_per_pass() const { return words_ * 64; }

  /// Writable W-word slice for one primary input (netlist input order);
  /// fill it, then call run().
  std::span<std::uint64_t> input_words(std::size_t input_index) {
    return {values_.data() + std::size_t{net_.inputs()[input_index]} * words_,
            words_};
  }

  /// Evaluates every gate from the current input words.
  void run();

  /// Loads blocks [first_block, first_block + count) of `ps` into the
  /// input words (count <= W; the remaining words are zero-filled) and
  /// runs.  Returns the value store.
  const std::vector<std::uint64_t>& run_blocks(const PatternSet& ps,
                                               std::size_t first_block,
                                               std::size_t count);

  /// Node-major value store: word w of node n is values()[n * W + w].
  const std::vector<std::uint64_t>& values() const { return values_; }
  std::span<const std::uint64_t> node_words(NodeId n) const {
    return {values_.data() + std::size_t{n} * words_, words_};
  }
  std::uint64_t word(NodeId n, std::size_t w) const {
    return values_[std::size_t{n} * words_ + w];
  }

 private:
  const Netlist& net_;
  const CompiledNetlist& cn_;
  std::size_t words_;
  std::vector<std::uint64_t> values_;
};

}  // namespace protest
