// Static stuck-at fault analysis: sound per-fault detection-probability
// intervals and untestability proofs, with no simulation at all.
//
// Every fault is classified
//
//   proven_undetectable  — hi == 0.  Either UNEXCITABLE (the implication
//                          engine proves the line constant at the stuck
//                          value, so the faulty value never differs) or
//                          UNOBSERVABLE (every propagation path is
//                          statically blocked: the effect cannot reach a
//                          primary output through nodes that can change).
//                          Such a fault is redundant — simulating it is
//                          pure waste, and its (d, e) test length is
//                          meaningless.
//   proven_detectable    — lo > 0.  Random patterns WILL detect it with
//                          probability at least lo; 1/lo bounds the
//                          expected test length from above.
//   uncertain            — the static argument leaves 0 inside [lo, hi].
//
// The interval construction composes three sound layers:
//
//   1. Constant lattices.  The plain forward lattice (`propagate_constants`)
//      gives ROBUST constants: their derivations pass only through other
//      robust constants, so a fault at a non-robust-constant origin can
//      never change them — they soundly BLOCK propagation.  The implication
//      engine (`learn_constants`) adds LEARNED constants (e.g. XOR(a,a)=0),
//      which hold for every good-circuit value — sound for excitation and
//      for unaffected side inputs, but NOT for blocking affected paths
//      (their derivations may pass through the very nodes the fault flips).
//   2. Signal-probability intervals (`signal_prob_bounds`), sharpened by
//      pinning learned constants, bound the good value of every net.
//   3. A per-fault forward EVENT sweep bounds P(node differs from good)
//      through the fault's fanout cone.  When exactly one fanin of a gate
//      is affected, "output differs" = "fanin differs AND the unaffected
//      side inputs sensitize the pin" — side inputs carry good values, so
//      their static intervals apply; the conjunction uses the interval
//      product when the stem Bloom signatures prove the supports disjoint
//      and the Fréchet-AND bound otherwise.  When several fanins are
//      affected (reconvergence of the fault effect), the event is widened
//      to the union bound [0, min(1, sum of driver event his)].  Detection
//      probability is then bracketed by the per-output events:
//      lo = max over POs of E_po.lo, hi = min(1, excitation hi, sum E_po.hi).
//
// Sweeps are budgeted per fault; a truncated sweep soundly falls back to
// [0, excitation hi].
//
// The work splits by lifetime into three parts:
//
//   - FaultContext: the tuple-independent half — the robust and learned
//     lattices and the reachability to the outputs.  It depends only on the
//     netlist, `learn` and `implication`, so a caller that analyzes many
//     tuples (the session's fault_bounds artifact) builds it once and shares
//     it read-only.
//   - The per-call pass: validate the tuple and every fault, then compute
//     the signal-probability intervals and pin the learned constants.
//   - Per-worker sweep scratch: event values and the frontier
//     (netlist/frontier.hpp, shared with the fault simulator), a bitset
//     over node ids popped lowest id first; node ids are topological, so
//     the sweep visits its cone in exactly the order of a min-heap.
//
// Each fault's result depends only on the fault, the context and the tuple,
// and the census sums per-worker counts, so an analysis fanned across any
// number of workers is field-for-field the serial one.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lint/implication.hpp"
#include "prob/signal_prob.hpp"
#include "sim/fault.hpp"

namespace protest {

class Executor;

enum class FaultClass : std::uint8_t {
  ProvenUndetectable,
  ProvenDetectable,
  Uncertain,
};

/// Which static argument proved a fault undetectable.
enum class UndetectableCause : std::uint8_t {
  None,          ///< fault is not proven undetectable
  Unexcitable,   ///< line provably constant at the stuck value
  Unobservable,  ///< every propagation path statically blocked
};

std::string to_string(FaultClass c);
std::string to_string(UndetectableCause c);

struct FaultBound {
  double lo = 0.0;  ///< sound lower bound on the detection probability
  double hi = 1.0;  ///< sound upper bound
  FaultClass verdict = FaultClass::Uncertain;
  UndetectableCause cause = UndetectableCause::None;
  /// The forward event sweep hit its node budget; hi fell back to the
  /// excitation bound (still sound, just wider).
  bool truncated = false;

  friend bool operator==(const FaultBound&, const FaultBound&) = default;
};

struct FaultAnalyzeOptions {
  /// Uniform input probability used when `input_probs` is empty.
  double p = 0.5;
  /// Explicit per-input tuple (validated); empty = uniform p.
  InputProbs input_probs;
  /// Run the implication engine to learn constants beyond the forward
  /// lattice (sharpens excitation bounds and side-input intervals).
  bool learn = true;
  ImplicationOptions implication;
  /// Per-fault budget on nodes visited by the forward event sweep.
  std::size_t max_cone_nodes = 2048;
};

struct FaultAnalysis {
  /// Parallel to the analyzed fault list.
  std::vector<FaultBound> bounds;

  // Census.
  std::size_t undetectable = 0;  ///< = unexcitable + unobservable
  std::size_t unexcitable = 0;
  std::size_t unobservable = 0;
  std::size_t detectable = 0;
  std::size_t uncertain = 0;
  std::size_t truncated_sweeps = 0;
  /// Event/side conjunctions that had to take a Fréchet or union-bound
  /// widening — a reconvergence census for the fault layer.
  std::size_t frechet_widened = 0;
  /// Constants the implication engine proved beyond the forward lattice.
  std::size_t learned_constants = 0;

  /// Fraction of faults settled statically (proven either way).
  double settled_fraction() const {
    return bounds.empty()
               ? 0.0
               : static_cast<double>(undetectable + detectable) /
                     static_cast<double>(bounds.size());
  }

  /// Field for field: every bound and every census count.
  friend bool operator==(const FaultAnalysis&, const FaultAnalysis&) = default;
};

/// The tuple-independent half of the analysis, built once per netlist:
/// the constant lattices (forward and learned) and reachability to the
/// primary outputs.  Immutable once constructed, so any number of threads
/// may analyze tuples against one context at once.  The netlist must
/// outlive it.
class FaultContext {
 public:
  /// Lattices and reachability (opaque; defined in fault_analyze.cpp).
  struct Tables;

  /// Reads only opts.learn and opts.implication; the tuple and the cone
  /// budget belong to each analysis.  Throws std::invalid_argument on an
  /// unfinalized netlist.
  explicit FaultContext(const Netlist& net,
                        const FaultAnalyzeOptions& opts = {});
  ~FaultContext();

  const Tables& tables() const { return *tables_; }

 private:
  std::unique_ptr<const Tables> tables_;
};

/// Analyzes every fault in the list against the finalized netlist: builds
/// a FaultContext and runs the per-tuple pass serially.  Throws
/// std::invalid_argument on an unfinalized netlist, a bad input tuple, or
/// a fault referencing a nonexistent node/pin.
FaultAnalysis analyze_faults(const Netlist& net, std::span<const Fault> faults,
                             const FaultAnalyzeOptions& opts = {});

/// The per-tuple pass against a prebuilt context.  opts.learn and
/// opts.implication must be the ones the context was built with
/// (std::invalid_argument otherwise).  With an
/// executor of more than one worker, the faults are split into fixed-size
/// tasks across it; a list of one task (and every nested call from one of
/// the executor's own tasks) runs inline.  Every task boundary is a
/// cancellation checkpoint (util/cancel.hpp).  The result is field-for-
/// field the one-shot analyze_faults for every worker count.  Throws as
/// the one-shot does, before any sweep runs.
FaultAnalysis analyze_faults(const FaultContext& ctx,
                             std::span<const Fault> faults,
                             const FaultAnalyzeOptions& opts,
                             Executor* exec = nullptr);

}  // namespace protest
