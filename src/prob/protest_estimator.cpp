#include "prob/protest_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "netlist/compiled.hpp"
#include "netlist/cone.hpp"
#include "prob/naive.hpp"

namespace protest {
namespace {

/// A candidate joining point pinned to a constant: its index into
/// GatePlan::candidates and the value, 0 or 1.
struct Pin {
  std::uint32_t candidate;
  double value;
};

/// Reach-mask bit of candidate c.  Candidates beyond 64 share bits: a
/// shared bit only widens the set a pinned run recomputes, and a
/// recomputed member that no pin reaches reproduces its baseline exactly.
std::uint64_t candidate_bit(std::size_t c) {
  return std::uint64_t{1} << (c % 64);
}

/// Re-propagates probabilities inside one gate's bounded cone with some
/// candidate joining points pinned to constants — the conditionals
/// P(a_i | A_v) of formula (2).
///
/// baseline() propagates the cone once, unpinned, and records for every
/// member the reach mask of the candidates it lies downstream of inside
/// the cone.  A pinned run() then recomputes only the members whose mask
/// meets a pin's bit, starting at the first pin; every other member keeps
/// its baseline value, which is exactly what a full re-propagation would
/// compute, since none of its in-cone inputs moved.
///
/// Every array is netlist-sized scratch, valid for the cone of the last
/// baseline() call; nothing is kept per plan.
class ConeProp {
 public:
  explicit ConeProp(const Netlist& net)
      : cn_(net.compiled()),
        cur_(net.size(), 0.0),
        base_(net.size(), 0.0),
        reach_(net.size(), 0),
        member_(net.size(), 0),
        ins_(std::max<std::size_t>(cn_.max_fanin(), 1)) {}

  /// cone must be ascending (topological) and contain `candidates`
  /// (ascending too); p holds final probabilities for every node the cone
  /// or its gate reads, and must outlive the runs on this baseline.
  /// Afterwards prob() returns the unpinned cone propagation.
  void baseline(std::span<const NodeId> cone,
                std::span<const NodeId> candidates,
                std::span<const double> p) {
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: forget every stale membership
      std::fill(member_.begin(), member_.end(), 0);
      epoch_ = 1;
    }
    cone_ = cone;
    candidates_ = candidates;
    p_ = p;
    touched_.clear();
    candidate_pos_.resize(candidates.size());
    std::size_t c = 0;
    for (std::size_t k = 0; k < cone.size(); ++k) {
      const NodeId m = cone[k];
      std::uint64_t reach = 0;
      if (c < candidates.size() && candidates[c] == m) {
        reach = candidate_bit(c);
        candidate_pos_[c++] = static_cast<std::uint32_t>(k);
      }
      double value = p[m];
      if (cn_.type(m) != GateType::Input) {
        value = eval_gate(m, [&](NodeId f) {
          if (member_[f] == epoch_)
            reach |= reach_[f];
          else
            cur_[f] = p[f];  // outside the cone: read, never recomputed
          return cur_[f];
        });
      }
      cur_[m] = base_[m] = value;
      reach_[m] = reach;
      member_[m] = epoch_;
    }
  }

  /// Re-propagates the cone with `pins` (ascending by candidate; empty
  /// restores the baseline).  Afterwards prob() returns the conditionals.
  void run(std::span<const Pin> pins) {
    for (NodeId m : touched_) cur_[m] = base_[m];
    touched_.clear();
    if (pins.empty()) return;
    std::uint64_t pinned = 0;
    for (const Pin& pin : pins) pinned |= candidate_bit(pin.candidate);
    std::size_t next = 0;
    for (std::size_t k = candidate_pos_[pins[0].candidate]; k < cone_.size();
         ++k) {
      const NodeId m = cone_[k];
      if ((reach_[m] & pinned) == 0) continue;
      touched_.push_back(m);
      if (next < pins.size() && candidates_[pins[next].candidate] == m)
        cur_[m] = pins[next++].value;
      else if (cn_.type(m) != GateType::Input)
        cur_[m] = eval_gate(m, [&](NodeId f) { return cur_[f]; });
    }
  }

  /// Probability of node n in the current run: the conditional for a cone
  /// member, the baseline's input probability for any other node.
  double prob(NodeId n) const {
    return member_[n] == epoch_ ? cur_[n] : p_[n];
  }

  /// Probability of gate g with input i read as in(fanin i).  Every gate
  /// evaluation of the estimator goes through this max_fanin buffer.
  template <class In>
  double eval_gate(NodeId g, In&& in) {
    const std::span<const NodeId> fanin = cn_.fanin(g);
    for (std::size_t i = 0; i < fanin.size(); ++i) ins_[i] = in(fanin[i]);
    return eval_gate_prob(cn_.type(g), {ins_.data(), fanin.size()});
  }

 private:
  const CompiledNetlist& cn_;
  std::vector<double> cur_;   ///< current run: members and the nodes they read
  std::vector<double> base_;  ///< baseline of the members
  std::vector<std::uint64_t> reach_;    ///< candidate bits reaching a member
  std::vector<std::uint32_t> member_;   ///< == epoch_ for cone members
  std::vector<std::uint32_t> candidate_pos_;  ///< cone index per candidate
  std::vector<NodeId> touched_;  ///< members the last run pinned or recomputed
  std::vector<double> ins_;      ///< max_fanin gate-input buffer
  std::span<const NodeId> cone_;
  std::span<const NodeId> candidates_;
  std::span<const double> p_;    ///< the baseline's input probabilities
  std::uint32_t epoch_ = 0;
};

/// Per-gate structural data: everything about case 4 of sect. 2 that does
/// not depend on the input tuple.
///
/// Retaining every conditioned gate's cone puts peak memory at
/// O(sum of maxlist-bounded cone sizes) for the estimator's lifetime —
/// a few MB on the largest shipped circuits.  Nothing else is stored per
/// cone member: the reach masks a pinned run needs are recomputed into
/// per-call scratch by each baseline pass.
struct GatePlan {
  NodeId node = kNoNode;
  std::vector<NodeId> candidates;  ///< trimmed candidate joining points V
  std::vector<NodeId> cone;        ///< bounded TFI union of the fanins
};

}  // namespace

/// The per-netlist plan: built once per estimator, immutable afterwards,
/// and read by every evaluation, perturb and screen.
struct ProtestEstimator::Plan {
  Plan(const Netlist& net, const ProtestParams& params)
      : index(net.size(), -1) {
    const CompiledNetlist& cn = net.compiled();
    ConeWorkspace ws(net);
    std::size_t max_candidates = 0;
    for (NodeId n = 0; n < net.size(); ++n) {
      if (cn.type(n) == GateType::Input || cn.fanin(n).size() < 2) continue;

      // Case 4: look for joining points V within MAXLIST levels.  The
      // candidate set also contains intra-cone reconvergence stems
      // (V(a,a)): pinning them makes the in-cone conditionals P(a_i | A_v)
      // of formula (2) sharp (see ConeWorkspace::conditioning_points).
      ws.compute(cn.fanin(n), params.maxlist);
      std::vector<NodeId> v = ws.conditioning_points(n);
      if (v.empty()) continue;
      total_joining_points += v.size();

      // Keep the candidates closest to the gate (strongest correlations
      // are near the reconvergence) when V is oversized.
      if (v.size() > params.max_candidates) {
        std::sort(v.begin(), v.end(), [&](NodeId a, NodeId b) {
          return net.level(a) > net.level(b);
        });
        v.resize(params.max_candidates);
        std::sort(v.begin(), v.end());
      }
      max_candidates = std::max(max_candidates, v.size());
      index[n] = static_cast<std::int32_t>(gates.size());
      gates.push_back({n, std::move(v), ws.cone()});
    }
    width = std::min<std::size_t>(params.maxvers, max_candidates);
  }

  std::vector<std::int32_t> index;  ///< node -> gates index or -1
  std::vector<GatePlan> gates;
  std::size_t width = 0;  ///< Selection slots per gate: max possible |W|
  std::size_t total_joining_points = 0;
};

/// One call's scratch over the immutable plan.  select() scores a gate's
/// candidates with the covariance criterion and stores the chosen W in a
/// Selection; condition() reads W from one.  Both then re-propagate the
/// conditionals of formula (2) and write the gate's probability into p.
class ProtestEstimator::Kernel {
 public:
  explicit Kernel(const ProtestEstimator& est)
      : cn_(est.net_.compiled()),
        params_(est.params_),
        plan_(est.plan()),
        prop_(est.net_),
        delta_(std::max<std::size_t>(cn_.max_fanin(), 1)) {}

  void select(NodeId n, std::vector<double>& p, Selection& into) {
    if (cn_.type(n) == GateType::Input) return;
    const std::int32_t idx = plan_.index[n];
    // Cases 1-3 of sect. 2: no conditioning possible or necessary.
    if (idx < 0) {
      p[n] = naive_value(n, p);
      return;
    }
    const GatePlan& gate = plan_.gates[static_cast<std::size_t>(idx)];
    prop_.baseline(gate.cone, gate.candidates, p);
    select_w(gate, p);
    into.set(static_cast<std::size_t>(idx), w_);
    p[n] = w_.empty() ? naive_value(n, p) : conditioned_prob(gate, w_);
  }

  void condition(NodeId n, std::vector<double>& p, const Selection& sel) {
    if (cn_.type(n) == GateType::Input) return;
    const std::int32_t idx = plan_.index[n];
    const std::span<const std::uint32_t> w =
        idx < 0 ? std::span<const std::uint32_t>()
                : sel.of(static_cast<std::size_t>(idx));
    if (w.empty()) {
      p[n] = naive_value(n, p);
      return;
    }
    const GatePlan& gate = plan_.gates[static_cast<std::size_t>(idx)];
    prop_.baseline(gate.cone, gate.candidates, p);
    p[n] = conditioned_prob(gate, w);
  }

 private:
  double naive_value(NodeId n, std::span<const double> p) {
    return prop_.eval_gate(n, [&](NodeId f) { return p[f]; });
  }

  /// Scores the candidates with the covariance criterion — maximize
  /// p_x (1-p_x) * max_{i<=j} |Delta(a_i,x) Delta(a_j,x)| with Delta from
  /// one-point conditionals — and leaves the top MAXVERS in w_.  Needs the
  /// plan's baseline in prop_.
  void select_w(const GatePlan& plan, std::span<const double> p) {
    const std::span<const NodeId> fanin = cn_.fanin(plan.node);
    w_.clear();
    scored_.clear();
    for (std::size_t c = 0; c < plan.candidates.size(); ++c) {
      const double px = p[plan.candidates[c]];
      const double sx2 = px * (1.0 - px);
      if (sx2 <= params_.min_score) continue;
      const auto candidate = static_cast<std::uint32_t>(c);
      const Pin one[] = {{candidate, 1.0}};
      prop_.run(one);
      for (std::size_t i = 0; i < fanin.size(); ++i)
        delta_[i] = prop_.prob(fanin[i]);
      const Pin zero[] = {{candidate, 0.0}};
      prop_.run(zero);
      for (std::size_t i = 0; i < fanin.size(); ++i)
        delta_[i] -= prop_.prob(fanin[i]);
      double best = 0.0;
      for (std::size_t i = 0; i < fanin.size(); ++i)
        for (std::size_t j = i; j < fanin.size(); ++j)
          best = std::max(best, std::abs(delta_[i] * delta_[j]));
      const double score = sx2 * best;
      if (score > params_.min_score) scored_.emplace_back(score, candidate);
    }
    if (scored_.empty()) return;
    // Candidate indices order like the candidates' node ids.
    std::sort(scored_.begin(), scored_.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    for (std::size_t i = 0;
         i < scored_.size() && w_.size() < params_.maxvers; ++i)
      w_.push_back(scored_[i].second);
    std::sort(w_.begin(), w_.end());  // topological, for the chain
  }

  /// Formula (2): enumerate assignments of W depth-first so that each
  /// branching weight is the conditional P(w_j | w_1..w_{j-1}) read off
  /// the re-propagated cone — sharper than the independence product when
  /// joining points feed each other.  Needs the plan's baseline in prop_.
  double conditioned_prob(const GatePlan& plan,
                          std::span<const std::uint32_t> w) {
    double acc = 0.0;
    pins_.resize(w.size());
    auto rec = [&](auto&& self, std::size_t j, double weight) -> void {
      if (weight <= 0.0) return;
      prop_.run(std::span<const Pin>(pins_).first(j));
      if (j == w.size()) {
        acc += weight * prop_.eval_gate(
                            plan.node, [&](NodeId f) { return prop_.prob(f); });
        return;
      }
      const double q =
          std::clamp(prop_.prob(plan.candidates[w[j]]), 0.0, 1.0);
      pins_[j] = {w[j], 1.0};
      self(self, j + 1, weight * q);
      pins_[j].value = 0.0;
      self(self, j + 1, weight * (1.0 - q));
    };
    rec(rec, 0, 1.0);
    return std::clamp(acc, 0.0, 1.0);
  }

  const CompiledNetlist& cn_;
  const ProtestParams& params_;
  const Plan& plan_;
  ConeProp prop_;              ///< also evaluates naive gates
  std::vector<double> delta_;  ///< max_fanin one-point conditional deltas
  std::vector<Pin> pins_;
  std::vector<std::uint32_t> w_;
  std::vector<std::pair<double, std::uint32_t>> scored_;
};

namespace {

/// A netlist-sized vector holding the tuple at the input nodes.
std::vector<double> with_inputs(const Netlist& net,
                                std::span<const double> input_probs) {
  std::vector<double> p(net.size(), 0.0);
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i)
    p[inputs[i]] = input_probs[i];
  return p;
}

/// The base probabilities with input `input_index` moved to new_p.
std::vector<double> moved(const Netlist& net, std::span<const double> base,
                          std::size_t input_index, double new_p) {
  std::vector<double> p(base.begin(), base.end());
  p[net.inputs()[input_index]] = new_p;
  return p;
}

}  // namespace

ProtestEstimator::ProtestEstimator(const Netlist& net, ProtestParams params)
    : net_(net), params_(params), fanout_cones_(net) {
  if (!net.finalized())
    throw std::logic_error("ProtestEstimator: netlist must be finalized");
}

ProtestEstimator::~ProtestEstimator() = default;

const ProtestEstimator::Plan& ProtestEstimator::plan() const {
  std::call_once(plan_once_,
                 [&] { plan_ = std::make_unique<const Plan>(net_, params_); });
  return *plan_;
}

const Selection& ProtestEstimator::checked(const Selection* selection) const {
  const Plan& plan = this->plan();
  if (!selection || selection->gates() != plan.gates.size() ||
      selection->width() != plan.width)
    throw std::invalid_argument(
        "ProtestEstimator: the selection was not made by this estimator");
  return *selection;
}

Evaluation ProtestEstimator::evaluate(
    std::span<const double> input_probs) const {
  validate_input_probs(net_, input_probs);
  const Plan& plan = this->plan();
  auto sel = std::make_shared<Selection>(plan.gates.size(), plan.width);
  Kernel kernel(*this);
  std::vector<double> p = with_inputs(net_, input_probs);
  for (NodeId n = 0; n < net_.size(); ++n) kernel.select(n, p, *sel);

  ProtestStats stats;
  stats.total_joining_points = plan.total_joining_points;
  for (std::size_t g = 0; g < sel->gates(); ++g) {
    const std::size_t w = sel->of(g).size();
    if (w == 0) continue;
    ++stats.gates_conditioned;
    stats.max_w = std::max(stats.max_w, w);
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = stats;
  }
  return {std::move(p), std::move(sel)};
}

std::vector<double> ProtestEstimator::signal_probs(
    std::span<const double> input_probs) const {
  return evaluate(input_probs).probs;
}

std::vector<double> ProtestEstimator::evaluate_under(
    std::span<const double> input_probs, const Selection& selection) const {
  validate_input_probs(net_, input_probs);
  const Selection& sel = checked(&selection);
  Kernel kernel(*this);
  std::vector<double> p = with_inputs(net_, input_probs);
  for (NodeId n = 0; n < net_.size(); ++n) kernel.condition(n, p, sel);
  return p;
}

// perturb() and screen() re-evaluate only the changed input's transitive
// fanout: any other gate's bounded fanin cone lies entirely outside that
// fanout (a cone member downstream of the input would put the gate
// downstream too), so its value, and its selected W, are functions of
// unchanged numbers and are kept verbatim.  The validation repeats the
// engine wrapper's; it is O(inputs) and gives direct callers the same
// checks.

Evaluation ProtestEstimator::perturb(std::span<const double> base_inputs,
                                     const Evaluation& base,
                                     std::size_t input_index,
                                     double new_p) const {
  validate_perturb_args(net_, base_inputs, base.probs, input_index, new_p);
  auto sel = std::make_shared<Selection>(checked(base.selection.get()));
  Kernel kernel(*this);
  std::vector<double> p = moved(net_, base.probs, input_index, new_p);
  for (NodeId n : fanout_cones_.of(input_index)) kernel.select(n, p, *sel);
  return {std::move(p), std::move(sel)};
}

std::vector<double> ProtestEstimator::screen(
    std::span<const double> base_inputs, const Evaluation& base,
    std::size_t input_index, double new_p) const {
  validate_perturb_args(net_, base_inputs, base.probs, input_index, new_p);
  const Selection& sel = checked(base.selection.get());
  Kernel kernel(*this);
  std::vector<double> p = moved(net_, base.probs, input_index, new_p);
  for (NodeId n : fanout_cones_.of(input_index)) kernel.condition(n, p, sel);
  return p;
}

ProtestStats ProtestEstimator::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace protest
