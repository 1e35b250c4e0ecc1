// Static fault simulation: one good simulation per 64-pattern block, then
// one walk of the one fault injector, FaultCone, per fault.  Two modes:
//
//   CountDetections  — counts, for every fault, how many patterns detect it.
//                      P_SIM(f) = count / N is the empirical detection
//                      probability the paper correlates PROTEST against
//                      (sect. 4, figs. 5/6).
//   FirstDetection   — records the first detecting pattern index and drops
//                      the fault (fault dropping), for coverage-vs-length
//                      curves (Table 6) and test-set validation (Table 2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lint/fault_analyze.hpp"
#include "netlist/frontier.hpp"
#include "netlist/netlist.hpp"
#include "sim/fault.hpp"
#include "sim/pattern.hpp"

namespace protest {

/// One fault's effect on one block of 64 patterns: the fault forced at its
/// site, the difference walked through the site's fanout cone on the
/// Frontier, a faulty word kept only where it differs from the good one.
/// Reused across faults and blocks; one per thread.
class FaultCone {
 public:
  explicit FaultCone(const Netlist& net);

  /// Injects `f` into the block whose good node words are `good` (W = 1)
  /// and returns the OR over the primary outputs of good ^ faulty, with
  /// bits past the block's valid patterns unmasked.
  std::uint64_t inject(const Fault& f, const std::vector<std::uint64_t>& good);

  /// Faulty word of node `n` under the last inject, until the next one.
  std::uint64_t value(NodeId n, const std::vector<std::uint64_t>& good) const {
    return stamp_[n] == epoch_ ? fval_[n] : good[n];
  }

 private:
  const Netlist& net_;
  const CompiledNetlist& cn_;
  Frontier frontier_;
  std::vector<std::uint64_t> fval_;
  std::vector<std::uint32_t> stamp_;  ///< fval_[n] is current iff == epoch_
  std::vector<std::uint64_t> ins_;
  std::uint32_t epoch_ = 1;
};

enum class FaultSimMode { CountDetections, FirstDetection };

struct FaultSimResult {
  std::size_t num_patterns = 0;
  /// Per fault: number of detecting patterns (CountDetections mode only).
  std::vector<std::uint64_t> detect_count;
  /// Per fault: index of the first detecting pattern, or -1 (both modes).
  std::vector<std::int64_t> first_detect;

  /// Fraction of faults detected by the whole set.
  double coverage() const;
  /// Fraction of faults whose first detection is < n patterns.
  double coverage_at(std::size_t n) const;
  /// Empirical per-fault detection probabilities (CountDetections mode).
  std::vector<double> detection_probs() const;
};

FaultSimResult simulate_faults(const Netlist& net, std::span<const Fault> faults,
                               const PatternSet& ps, FaultSimMode mode);

/// Fault simulation pruned and checked by the static fault analysis
/// (bounds parallel to the fault list, from analyze_faults on the same
/// list).  Proven-undetectable faults are never simulated — they keep
/// detect_count 0 / first_detect -1, which is exact, not an estimate.  In
/// CountDetections mode the static intervals act as a correctness oracle:
/// an empirical detection probability outside [lo - 6*sigma, hi + 6*sigma]
/// (sigma = 1 / (2*sqrt(N)), the worst-case binomial deviation) means
/// either the simulator or the static analysis is broken, and throws
/// std::logic_error.  Throws std::invalid_argument on a size mismatch.
FaultSimResult simulate_faults_pruned(const Netlist& net,
                                      std::span<const Fault> faults,
                                      const PatternSet& ps, FaultSimMode mode,
                                      const FaultAnalysis& fa);

}  // namespace protest
