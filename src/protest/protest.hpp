// The PROTEST tool facade: one object bundling the full pipeline the paper
// describes in sect. 1 —
//   * signal probability estimation per node,
//   * fault detection probability estimation per fault,
//   * required random test length for (d, e),
//   * optimized input signal probabilities,
//   * weighted random pattern sets,
//   * static fault simulation with those patterns.
//
// Since the session API landed, the facade is a thin compatibility wrapper
// over an AnalysisSession: analyze() runs a session query and copies the
// artifacts into the eager ProtestReport struct.  Since the service layer
// landed, that session is leased from a private ProtestService — the
// facade is a single-netlist in-process client of the same registry the
// `protest serve` daemon dispatches into, sharing its executor seam.  New
// code that issues repeated or varied queries should hold an
// AnalysisSession (or use session() below) — it exposes the
// request/response interface, the tuple cache, the incremental perturb()
// path, and JSON serialization; multi-netlist callers should hold a
// ProtestService / SessionRegistry directly (protest/service.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "netlist/netlist.hpp"
#include "observe/observability.hpp"
#include "optimize/hill_climb.hpp"
#include "prob/engine.hpp"
#include "protest/session.hpp"
#include "sim/fault.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"
#include "testlen/test_length.hpp"

namespace protest {

class ProtestService;

/// Facade construction knobs — the session options under their historical
/// name.
using ProtestOptions = SessionOptions;

/// Result of one analysis run (fixed input-probability tuple), fully
/// materialized.  The session API's AnalysisResult is the lazy equivalent.
struct ProtestReport {
  std::string engine;                     ///< engine that produced it
  std::vector<double> input_probs;
  std::vector<double> signal_probs;       ///< per node
  Observability observability;            ///< per stem / pin
  std::vector<double> detection_probs;    ///< per fault (tool fault list)
};

class Protest {
 public:
  explicit Protest(const Netlist& net, ProtestOptions opts = {});
  ~Protest();
  Protest(Protest&&) noexcept;

  const Netlist& netlist() const { return session_->netlist(); }
  const std::vector<Fault>& faults() const { return session_->faults(); }
  const ProtestOptions& options() const { return session_->options(); }

  /// The signal-probability engine the tool evaluates through.
  const SignalProbEngine& engine() const { return session_->engine(); }

  /// The underlying session: cached plans, incremental perturb(), lazy
  /// artifact requests, JSON results.
  AnalysisSession& session() { return *session_; }
  const AnalysisSession& session() const { return *session_; }

  /// The service the facade's session is registered in (netlist name
  /// "default") — the seam to the daemon-facing request protocol.
  ProtestService& service() { return *service_; }

  /// Signal probabilities, observabilities and detection probabilities for
  /// one input tuple.  Repeated tuples hit the session cache.
  ProtestReport analyze(std::span<const double> input_probs) const;

  /// Batched analysis: one report per tuple, each with exact single-tuple
  /// semantics (the engine's plan, built once, amortizes the per-netlist
  /// setup).
  std::vector<ProtestReport> analyze_batch(
      std::span<const InputProbs> input_tuples) const;

  /// Paper sect. 5: smallest N with P_{F_d} >= e given the report.
  std::uint64_t test_length(const ProtestReport& report, double d,
                            double e) const;

  /// Paper sect. 6: optimized input signal probabilities maximizing J_N.
  HillClimbResult optimize(std::uint64_t n_parameter,
                           HillClimbOptions opts = {}) const;

  /// Weighted random patterns implementing a probability tuple.
  PatternSet generate_patterns(std::span<const double> input_probs,
                               std::size_t num_patterns,
                               std::uint64_t seed) const;

  /// Static fault simulation of the tool's fault list.
  FaultSimResult fault_simulate(const PatternSet& ps, FaultSimMode mode) const;

 private:
  /// The facade's private service instance; the session is leased from
  /// its registry (registered externally over the caller's netlist, so
  /// netlist() identity is preserved).  The const analyze() API stays —
  /// sessions are internally synchronized and logically const.
  std::unique_ptr<ProtestService> service_;
  std::shared_ptr<AnalysisSession> session_;
};

}  // namespace protest
