#include "lint/fault_analyze.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "lint/fold.hpp"
#include "lint/prob_bounds.hpp"
#include "netlist/frontier.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace protest {

std::string to_string(FaultClass c) {
  switch (c) {
    case FaultClass::ProvenUndetectable:
      return "proven_undetectable";
    case FaultClass::ProvenDetectable:
      return "proven_detectable";
    case FaultClass::Uncertain:
      return "uncertain";
  }
  return "?";
}

std::string to_string(UndetectableCause c) {
  switch (c) {
    case UndetectableCause::None:
      return "none";
    case UndetectableCause::Unexcitable:
      return "unexcitable";
    case UndetectableCause::Unobservable:
      return "unobservable";
  }
  return "?";
}

struct FaultContext::Tables {
  const Netlist* net = nullptr;
  bool learn = true;
  ImplicationOptions implication;
  std::vector<signed char> robust;   ///< forward lattice: blocks propagation
  std::vector<signed char> learned;  ///< + implications: good values only
  std::vector<char> plain_reach;
  std::vector<char> obs_reach;
  std::size_t learned_count = 0;
};

namespace {

/// Faults per sweep task.  Large enough that alu's 536 faults form one
/// task, which runs inline: the executor's caller waits for every worker
/// to leave a job, so a sub-millisecond job would mostly buy wake-up
/// stalls.  div's 9,676 faults span sixteen tasks, few enough to keep the
/// per-task overhead negligible and enough to balance its uneven cones.
constexpr std::size_t kFaultsPerTask = 640;

/// Same fixed Bloom bit per stem id as prob_bounds (splitmix64 finalizer) —
/// used to give the fault-origin variable a bit of its own.
std::uint64_t stem_bit(NodeId n) {
  std::uint64_t z = n + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return 1ull << (z & 63u);
}

struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};

Interval clamp01(Interval v) {
  v.lo = std::clamp(v.lo, 0.0, 1.0);
  v.hi = std::clamp(v.hi, 0.0, 1.0);
  if (v.lo > v.hi) v.lo = v.hi;
  return v;
}

/// Fréchet conjunction: sound for ANY joint distribution.
Interval and_frechet(Interval a, Interval b) {
  return {std::max(0.0, a.lo + b.lo - 1.0), std::min(a.hi, b.hi)};
}

void validate(const Netlist& net, const Fault& f) {
  if (f.node >= net.size())
    throw std::invalid_argument("analyze_faults: fault node out of range");
  if (!f.is_stem() &&
      static_cast<std::size_t>(f.pin) >= net.gate(f.node).fanin.size())
    throw std::invalid_argument("analyze_faults: fault pin out of range");
}

/// The per-tuple pass: good-value intervals for the requested tuple, with
/// the learned constants pinned.  Sound: a learned constant IS the good
/// value on every vector, and a constant net carries no randomness, so it
/// also drops out of the signatures.  Downstream intervals keep their
/// pre-pin (wider) values.
SignalProbBounds pinned_bounds(const FaultContext::Tables& t,
                               const FaultAnalyzeOptions& opts) {
  const Netlist& net = *t.net;
  const InputProbs probs = opts.input_probs.empty()
                               ? uniform_input_probs(net, opts.p)
                               : opts.input_probs;
  validate_input_probs(net, probs);
  SignalProbBounds sb = signal_prob_bounds(net, probs);
  for (NodeId n = 0; n < static_cast<NodeId>(net.size()); ++n) {
    if (t.learned[n] < 0) continue;
    sb.lo[n] = sb.hi[n] = static_cast<double>(t.learned[n]);
    sb.sig[n] = 0;
  }
  return sb;
}

/// One worker's per-fault sweep state over a shared context and tuple.
/// Cache-line aligned: the workers' sweepers sit side by side, and their
/// counters and cursors change on every visited node.
class alignas(64) Sweeper {
 public:
  Sweeper(const FaultContext::Tables& ctx, const SignalProbBounds& sb,
          std::size_t max_cone_nodes)
      : net_(*ctx.net),
        ctx_(ctx),
        sb_(sb),
        max_cone_nodes_(max_cone_nodes),
        ev_(net_.size()),
        ev_epoch_(net_.size(), 0),
        frontier_(net_.size()) {}

  std::size_t frechet_widened() const { return frechet_widened_; }

  /// The fault's bound; `f` was validated by the caller.
  FaultBound analyze(const Fault& f) {
    const NodeId site =
        f.is_stem() ? f.node : net_.gate(f.node).fanin[f.pin];

    // Excitation: the good value of the faulted line must be the opposite
    // of the stuck value.
    const Interval exc =
        f.sa == StuckAt::Zero
            ? Interval{sb_.lo[site], sb_.hi[site]}
            : Interval{1.0 - sb_.hi[site], 1.0 - sb_.lo[site]};
    if (exc.hi <= 0.0)
      return undetectable(UndetectableCause::Unexcitable);

    // Observability prechecks.  The effect surfaces at the stem node
    // itself, or at the faulted pin's consuming gate.
    const bool origin_free = ctx_.robust[site] < 0;
    if (!f.is_stem() && origin_free && ctx_.robust[f.node] >= 0) {
      // A robust-constant gate output is immune to a fault on a pin the
      // lattice did not use to derive it (robust derivations only pass
      // through robust-constant fanins, and this driver is robust-free).
      return undetectable(UndetectableCause::Unobservable);
    }
    if (origin_free ? !ctx_.obs_reach[f.node] : !ctx_.plain_reach[f.node])
      return undetectable(UndetectableCause::Unobservable);

    return sweep(f, site, exc, origin_free);
  }

 private:
  static FaultBound undetectable(UndetectableCause cause) {
    return {0.0, 0.0, FaultClass::ProvenUndetectable, cause, false};
  }

  struct Ev {
    Interval iv;
    std::uint64_t sig = 0;
  };

  /// P(E and all unaffected side pins of `gate` sensitize pin `pin`):
  /// the exact event identity for a single affected fanin.
  Ev combine_single(NodeId gate, int pin, Ev e) {
    const Gate& g = net_.gate(gate);
    const GateType t = g.type;
    if (t == GateType::Buf || t == GateType::Not || t == GateType::Xor ||
        t == GateType::Xnor)
      return e;  // a flip on the single affected pin always propagates

    // AND/NAND propagate iff every side pin is 1; OR/NOR iff every side
    // pin is 0.  Side pins are unaffected, so their good-value intervals
    // apply; fold them with the product where the signatures prove
    // disjointness, Fréchet otherwise.
    const bool need_one = t == GateType::And || t == GateType::Nand;
    Interval sens{1.0, 1.0};
    std::uint64_t sens_sig = 0;
    for (std::size_t k = 0; k < g.fanin.size(); ++k) {
      if (static_cast<int>(k) == pin) continue;
      const NodeId f = g.fanin[k];
      const Interval side = need_one
                                ? Interval{sb_.lo[f], sb_.hi[f]}
                                : Interval{1.0 - sb_.hi[f], 1.0 - sb_.lo[f]};
      if ((sens_sig & sb_.sig[f]) == 0) {
        sens.lo *= side.lo;
        sens.hi *= side.hi;
      } else {
        ++frechet_widened_;
        sens = and_frechet(sens, side);
      }
      sens_sig |= sb_.sig[f];
    }
    Ev out;
    if ((e.sig & sens_sig) == 0) {
      out.iv = {e.iv.lo * sens.lo, e.iv.hi * sens.hi};
    } else {
      ++frechet_widened_;
      out.iv = and_frechet(e.iv, sens);
    }
    out.iv = clamp01(out.iv);
    out.sig = e.sig | sens_sig;
    return out;
  }

  /// Records the event at `n` and queues its consumers.
  void mark(NodeId n, Ev e, double& det_lo, double& det_hi_sum) {
    ev_[n] = e;
    ev_epoch_[n] = epoch_;
    if (net_.is_output(n)) {
      det_lo = std::max(det_lo, e.iv.lo);
      det_hi_sum += e.iv.hi;
    }
    for (const NodeId c : net_.fanout(n)) frontier_.push(c);
  }

  FaultBound sweep(const Fault& f, NodeId site, Interval exc,
                   bool origin_free) {
    ++epoch_;
    double det_lo = 0.0, det_hi_sum = 0.0;

    // Seed: the event at the origin.  stem_bit gives the origin variable a
    // signature bit of its own even when its good-value signature is empty
    // (e.g. a learned-constant line).
    Ev seed{exc, sb_.sig[site] | stem_bit(site)};
    if (!f.is_stem()) {
      seed = combine_single(f.node, f.pin, seed);
      if (seed.iv.hi <= 0.0)
        return undetectable(UndetectableCause::Unobservable);
    }
    frontier_.start(f.node);
    mark(f.node, seed, det_lo, det_hi_sum);

    std::size_t visited = 0;
    while (!frontier_.empty()) {
      const NodeId c = frontier_.pop();
      if (ev_epoch_[c] == epoch_) continue;  // seeded origin gate
      // A fault at a robust-free origin can never flip a robust constant.
      if (origin_free && ctx_.robust[c] >= 0) continue;
      if (++visited > max_cone_nodes_) {
        // Budget: fall back to the excitation bound — still sound.
        frontier_.clear();
        FaultBound b{0.0, exc.hi, FaultClass::Uncertain,
                     UndetectableCause::None, true};
        if (b.hi <= 0.0) {  // cannot happen (prechecked), but keep it sound
          b.verdict = FaultClass::ProvenUndetectable;
          b.cause = UndetectableCause::Unexcitable;
        }
        return b;
      }

      const Gate& g = net_.gate(c);
      int affected_pins = 0;
      int single_pin = -1;
      drivers_.clear();
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        const NodeId d = g.fanin[k];
        if (ev_epoch_[d] != epoch_) continue;
        ++affected_pins;
        single_pin = static_cast<int>(k);
        if (std::find(drivers_.begin(), drivers_.end(), d) == drivers_.end())
          drivers_.push_back(d);
      }
      if (affected_pins == 0) continue;

      Ev e;
      if (affected_pins == 1) {
        e = combine_single(c, single_pin, ev_[drivers_[0]]);
      } else {
        // Several affected fanins (the fault effect reconverges): the
        // output can only differ if some affected driver differs — union
        // bound over the distinct drivers, lower bound 0 (effects may
        // cancel, e.g. XOR of a stem with itself).
        ++frechet_widened_;
        double hi = 0.0;
        std::uint64_t sig = 0;
        for (const NodeId d : drivers_) {
          hi += ev_[d].iv.hi;
          sig |= ev_[d].sig;
        }
        for (const NodeId d : g.fanin) sig |= sb_.sig[d];
        e.iv = clamp01({0.0, hi});
        e.sig = sig;
      }
      if (e.iv.hi <= 0.0) continue;  // provably never differs: cone pruned
      mark(c, e, det_lo, det_hi_sum);
    }

    Interval det{det_lo, std::min({1.0, det_hi_sum, exc.hi})};
    det = clamp01(det);
    FaultBound b{det.lo, det.hi, FaultClass::Uncertain,
                 UndetectableCause::None, false};
    if (det.hi <= 0.0) {
      b.verdict = FaultClass::ProvenUndetectable;
      b.cause = UndetectableCause::Unobservable;
    } else if (det.lo > 0.0) {
      b.verdict = FaultClass::ProvenDetectable;
    }
    return b;
  }

  const Netlist& net_;
  const FaultContext::Tables& ctx_;
  const SignalProbBounds& sb_;  ///< learned-pinned good-value intervals
  std::size_t max_cone_nodes_;
  std::size_t frechet_widened_ = 0;

  // Per-fault scratch, epoch-stamped to avoid O(n) clears.
  std::vector<Ev> ev_;
  std::vector<std::uint32_t> ev_epoch_;
  std::uint32_t epoch_ = 0;
  Frontier frontier_;
  std::vector<NodeId> drivers_;  ///< distinct affected drivers of one gate
};

}  // namespace

FaultContext::FaultContext(const Netlist& net,
                           const FaultAnalyzeOptions& opts) {
  if (!net.finalized())
    throw std::invalid_argument("analyze_faults: netlist must be finalized");
  auto t = std::make_unique<Tables>();
  t->net = &net;
  t->learn = opts.learn;
  t->implication = opts.implication;
  t->robust = propagate_constants(net);
  t->learned = t->robust;
  if (opts.learn) {
    ImplicationStats st;
    t->learned = learn_constants(net, opts.implication, &st);
    t->learned_count = st.learned;
  }

  // Reverse reachability to the primary outputs: plain, and restricted
  // to nodes the forward lattice leaves free.  A robust constant's
  // derivation passes only through robust constants, so a fault at a
  // robust-free origin can never flip one — robust constants soundly
  // block its propagation paths (the dead-gate argument, fault-lifted).
  const NodeId n = static_cast<NodeId>(net.size());
  t->plain_reach.assign(n, 0);
  t->obs_reach.assign(n, 0);
  for (NodeId id = n; id-- > 0;) {
    char plain = net.is_output(id) ? 1 : 0;
    char obs = plain;
    for (const NodeId c : net.fanout(id)) {
      plain |= t->plain_reach[c];
      obs |= static_cast<char>(t->robust[c] < 0 && t->obs_reach[c]);
    }
    t->plain_reach[id] = plain;
    t->obs_reach[id] = obs;
  }
  tables_ = std::move(t);
}

FaultContext::~FaultContext() = default;

FaultAnalysis analyze_faults(const Netlist& net, std::span<const Fault> faults,
                             const FaultAnalyzeOptions& opts) {
  return analyze_faults(FaultContext(net, opts), faults, opts);
}

FaultAnalysis analyze_faults(const FaultContext& ctx,
                             std::span<const Fault> faults,
                             const FaultAnalyzeOptions& opts, Executor* exec) {
  const FaultContext::Tables& t = ctx.tables();
  if (opts.learn != t.learn || !(opts.implication == t.implication))
    throw std::invalid_argument(
        "analyze_faults: learn/implication options differ from the "
        "context's");
  const SignalProbBounds sb = pinned_bounds(t, opts);
  for (const Fault& f : faults) validate(*t.net, f);

  FaultAnalysis out;
  out.bounds.resize(faults.size());
  out.learned_constants = t.learned_count;
  const std::size_t num_tasks =
      (faults.size() + kFaultsPerTask - 1) / kFaultsPerTask;
  const bool fan_out =
      exec != nullptr && exec->num_workers() > 1 && num_tasks > 1;
  // Scratch per worker, built on the worker's first task; a slot is only
  // ever used by one thread at a time.  Each task writes only its own
  // bounds, so the result does not depend on which worker ran what.
  std::vector<std::optional<Sweeper>> scratch(fan_out ? exec->num_workers()
                                                      : 1);
  const auto task = [&](std::size_t task_index, unsigned worker) {
    check_cancelled();  // task boundary: a cancel stops within one task
    std::optional<Sweeper>& slot = scratch[worker];
    Sweeper& sw = slot ? *slot : slot.emplace(t, sb, opts.max_cone_nodes);
    const std::size_t begin = task_index * kFaultsPerTask;
    const std::size_t end = std::min(faults.size(), begin + kFaultsPerTask);
    for (std::size_t i = begin; i < end; ++i)
      out.bounds[i] = sw.analyze(faults[i]);
  };
  if (fan_out) {
    exec->parallel_for(num_tasks, task);
  } else {
    for (std::size_t i = 0; i < num_tasks; ++i) task(i, 0);
  }

  for (const FaultBound& b : out.bounds) {
    switch (b.verdict) {
      case FaultClass::ProvenUndetectable:
        ++out.undetectable;
        if (b.cause == UndetectableCause::Unexcitable)
          ++out.unexcitable;
        else
          ++out.unobservable;
        break;
      case FaultClass::ProvenDetectable:
        ++out.detectable;
        break;
      case FaultClass::Uncertain:
        ++out.uncertain;
        break;
    }
    if (b.truncated) ++out.truncated_sweeps;
  }
  for (const std::optional<Sweeper>& sw : scratch)
    if (sw) out.frechet_widened += sw->frechet_widened();
  return out;
}

}  // namespace protest
