#include "sim/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "netlist/compiled.hpp"
#include "sim/word_sim.hpp"

namespace protest {

double FaultSimResult::coverage() const {
  if (first_detect.empty()) return 1.0;
  std::size_t det = 0;
  for (std::int64_t f : first_detect) det += f >= 0;
  return static_cast<double>(det) / static_cast<double>(first_detect.size());
}

double FaultSimResult::coverage_at(std::size_t n) const {
  if (first_detect.empty()) return 1.0;
  std::size_t det = 0;
  for (std::int64_t f : first_detect)
    det += f >= 0 && static_cast<std::size_t>(f) < n;
  return static_cast<double>(det) / static_cast<double>(first_detect.size());
}

std::vector<double> FaultSimResult::detection_probs() const {
  std::vector<double> p(detect_count.size());
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<double>(detect_count[i]) /
           static_cast<double>(num_patterns);
  return p;
}

FaultCone::FaultCone(const Netlist& net)
    : net_(net),
      cn_(net.compiled()),
      frontier_(net.size()),
      fval_(net.size(), 0),
      stamp_(net.size(), 0) {}

std::uint64_t FaultCone::inject(const Fault& f,
                                const std::vector<std::uint64_t>& good) {
  if (++epoch_ == 0) {  // wrapped: no stale stamp may match again
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  std::uint64_t detected = 0;
  const auto settle = [&](NodeId n, std::uint64_t v) {
    const std::uint64_t diff = v ^ good[n];
    if (diff == 0) return;
    fval_[n] = v;
    stamp_[n] = epoch_;
    if (net_.is_output(n)) detected |= diff;
    for (const NodeId c : net_.fanout(n)) frontier_.push(c);
  };

  const std::uint64_t forced = f.sa == StuckAt::One ? ~std::uint64_t{0} : 0;
  std::uint64_t site = forced;
  if (!f.is_stem()) {
    const std::span<const NodeId> fanin = cn_.fanin(f.node);
    ins_.clear();
    for (std::size_t k = 0; k < fanin.size(); ++k)
      ins_.push_back(static_cast<int>(k) == f.pin ? forced : good[fanin[k]]);
    site = eval_gate_word(cn_.type(f.node), ins_);
  }
  frontier_.start(f.node);
  settle(f.node, site);
  while (!frontier_.empty()) {
    const NodeId n = frontier_.pop();
    ins_.clear();
    for (const NodeId x : cn_.fanin(n)) ins_.push_back(value(x, good));
    settle(n, eval_gate_word(cn_.type(n), ins_));
  }
  return detected;
}

namespace {

/// Shared engine: `fa` non-null prunes proven-undetectable faults from the
/// live list up front (their zero results are exact by proof).
FaultSimResult simulate_impl(const Netlist& net, std::span<const Fault> faults,
                             const PatternSet& ps, FaultSimMode mode,
                             const FaultAnalysis* fa) {
  if (!net.finalized())
    throw std::logic_error("simulate_faults: netlist must be finalized");

  FaultSimResult res;
  res.num_patterns = ps.num_patterns();
  res.first_detect.assign(faults.size(), -1);
  if (mode == FaultSimMode::CountDetections)
    res.detect_count.assign(faults.size(), 0);

  WordSimulator good_sim(net, 1);
  FaultCone cone(net);
  std::vector<std::size_t> live;
  live.reserve(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (fa && fa->bounds[i].verdict == FaultClass::ProvenUndetectable)
      continue;
    live.push_back(i);
  }

  for (std::size_t b = 0; b < ps.num_blocks(); ++b) {
    const auto& good = good_sim.run_blocks(ps, b, 1);
    const std::uint64_t mask = ps.valid_mask(b);
    std::size_t kept = 0;
    for (std::size_t li = 0; li < live.size(); ++li) {
      const std::size_t fi = live[li];
      const std::uint64_t det = cone.inject(faults[fi], good) & mask;
      if (det != 0 && res.first_detect[fi] < 0)
        res.first_detect[fi] =
            static_cast<std::int64_t>(b * 64 + std::countr_zero(det));
      if (mode == FaultSimMode::CountDetections) {
        res.detect_count[fi] += static_cast<std::uint64_t>(std::popcount(det));
        live[kept++] = fi;
      } else {
        if (det == 0) live[kept++] = fi;  // drop detected faults
      }
    }
    live.resize(kept);
    if (live.empty()) break;
  }
  return res;
}

}  // namespace

FaultSimResult simulate_faults(const Netlist& net,
                               std::span<const Fault> faults,
                               const PatternSet& ps, FaultSimMode mode) {
  return simulate_impl(net, faults, ps, mode, nullptr);
}

FaultSimResult simulate_faults_pruned(const Netlist& net,
                                      std::span<const Fault> faults,
                                      const PatternSet& ps, FaultSimMode mode,
                                      const FaultAnalysis& fa) {
  if (fa.bounds.size() != faults.size())
    throw std::invalid_argument(
        "simulate_faults_pruned: fault list and analysis size mismatch");
  FaultSimResult res = simulate_impl(net, faults, ps, mode, &fa);

  // The static intervals are sound by construction, so an empirical
  // detection probability beyond worst-case sampling noise is proof of a
  // bug in one of the two layers — fail loudly, never average it away.
  if (mode == FaultSimMode::CountDetections && res.num_patterns > 0) {
    const double n = static_cast<double>(res.num_patterns);
    const double slack = 6.0 * 0.5 / std::sqrt(n);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const FaultBound& b = fa.bounds[i];
      if (b.verdict == FaultClass::ProvenUndetectable) continue;
      const double p = static_cast<double>(res.detect_count[i]) / n;
      if (p < b.lo - slack || p > b.hi + slack)
        throw std::logic_error(
            "simulate_faults_pruned: empirical detection probability " +
            std::to_string(p) + " of fault " + to_string(net, faults[i]) +
            " falls outside its static interval [" + std::to_string(b.lo) +
            ", " + std::to_string(b.hi) + "] by more than 6 sigma — " +
            "the simulator or the static fault analyzer is broken");
    }
  }
  return res;
}

}  // namespace protest
