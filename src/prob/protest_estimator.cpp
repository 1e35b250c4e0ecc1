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
/// not depend on the input tuple.  Built once per estimator and immutable
/// afterwards; reused for every tuple, batch, and incremental perturbation.
///
/// Retaining every conditioned gate's cone puts peak memory at
/// O(sum of maxlist-bounded cone sizes) for the estimator's lifetime —
/// a few MB on the largest shipped circuits.  Nothing else is stored per
/// cone member: the reach masks a pinned run needs are recomputed into
/// netlist-sized scratch by each baseline pass.
struct GatePlan {
  NodeId node = kNoNode;
  std::vector<NodeId> candidates;  ///< trimmed candidate joining points V
  std::vector<NodeId> cone;        ///< bounded TFI union of the fanins
};

/// The conditioning sets W of every planned gate, all selected at one
/// input tuple, the anchor.  Plan i's set is w[offset[i], offset[i + 1]):
/// candidate indices, ascending.
struct Selection {
  std::vector<double> anchor;
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> w;

  std::span<const std::uint32_t> of(std::size_t plan) const {
    return std::span<const std::uint32_t>(w).subspan(
        offset[plan], offset[plan + 1] - offset[plan]);
  }
};

/// Where eval_node() takes a gate's conditioning set from.
enum class Sets {
  Record,   ///< select it and append it to the selection (full select run)
  Frozen,   ///< read it from the selection
  Scratch,  ///< select it for this evaluation only (exact perturb)
};

}  // namespace

/// One evaluation context: the immutable structural plan, the selection
/// of the last full select run, and per-gate scratch.  run(select = true)
/// scores the candidates with the covariance criterion and records W per
/// gate; run(select = false) reuses the recorded W and only re-propagates
/// the conditionals of formula (2); run_perturb() re-evaluates only the
/// fanout cone of one changed input.
class ProtestEstimator::Evaluator {
 public:
  Evaluator(const Netlist& net, const ProtestParams& params)
      : net_(net),
        cn_(net.compiled()),
        params_(params),
        plan_index_(net.size(), -1),
        fanout_cones_(net),
        prop_(net),
        delta_(std::max<std::size_t>(cn_.max_fanin(), 1)) {
    build_plan();
  }

  std::vector<double> run(std::span<const double> input_probs, bool select) {
    std::vector<double> p(net_.size(), 0.0);
    const auto inputs = net_.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i)
      p[inputs[i]] = input_probs[i];

    if (select) {
      stats_.gates_conditioned = 0;
      stats_.max_w = 0;
      selection_.anchor.assign(input_probs.begin(), input_probs.end());
      selection_.offset.assign(1, 0);
      selection_.w.clear();
    }

    for (NodeId n = 0; n < net_.size(); ++n) {
      if (cn_.type(n) == GateType::Input) continue;
      p[n] = eval_node(n, p, select ? Sets::Record : Sets::Frozen);
    }
    return p;
  }

  /// base must be the vector run()/run_perturb() produced for
  /// base_inputs.  Only the changed input's transitive fanout is
  /// re-evaluated: any other gate's bounded fanin cone lies entirely
  /// outside that fanout (a cone member downstream of the input would put
  /// the gate downstream too), so its value is a function of unchanged
  /// numbers and is kept verbatim.
  ///
  /// Exact mode re-selects per touched gate, exactly as a fresh full run
  /// would — the result matches run(perturbed tuple, select=true) bit for
  /// bit.  Those sets are scratch: the recorded selection still belongs
  /// to the last full select run.  FrozenSelection evaluates under the
  /// sets selected at base_inputs (re-anchoring them with one select run
  /// only when the recorded selection belongs to another tuple) — the
  /// result matches what a batch anchored at base_inputs computes for the
  /// perturbed tuple, with eval-only cost confined to the fanout cone.
  std::vector<double> run_perturb(std::span<const double> base_inputs,
                                  std::span<const double> base,
                                  std::size_t input_index, double new_p,
                                  PerturbMode mode) {
    const bool exact = mode == PerturbMode::Exact;
    if (!exact && !std::equal(selection_.anchor.begin(),
                              selection_.anchor.end(), base_inputs.begin(),
                              base_inputs.end()))
      run(base_inputs, /*select=*/true);  // re-anchor the selection
    std::vector<double> p(base.begin(), base.end());
    const NodeId root = net_.inputs()[input_index];
    p[root] = new_p;
    for (NodeId n : fanout_cones_.of(input_index)) {
      if (n == root) continue;
      p[n] = eval_node(n, p, exact ? Sets::Scratch : Sets::Frozen);
    }
    return p;
  }

  const ProtestStats& stats() const { return stats_; }

 private:
  void build_plan() {
    ConeWorkspace ws(net_);
    for (NodeId n = 0; n < net_.size(); ++n) {
      if (cn_.type(n) == GateType::Input || cn_.fanin(n).size() < 2) continue;

      // Case 4: look for joining points V within MAXLIST levels.  The
      // candidate set also contains intra-cone reconvergence stems
      // (V(a,a)): pinning them makes the in-cone conditionals P(a_i | A_v)
      // of formula (2) sharp (see ConeWorkspace::conditioning_points).
      ws.compute(cn_.fanin(n), params_.maxlist);
      std::vector<NodeId> v = ws.conditioning_points(n);
      if (v.empty()) continue;
      stats_.total_joining_points += v.size();

      // Keep the candidates closest to the gate (strongest correlations
      // are near the reconvergence) when V is oversized.
      if (v.size() > params_.max_candidates) {
        std::sort(v.begin(), v.end(), [&](NodeId a, NodeId b) {
          return net_.level(a) > net_.level(b);
        });
        v.resize(params_.max_candidates);
        std::sort(v.begin(), v.end());
      }
      plan_index_[n] = static_cast<std::int32_t>(plans_.size());
      plans_.push_back({n, std::move(v), ws.cone()});
    }
  }

  /// Evaluates one non-input node against the current probabilities,
  /// taking its conditioning set from `sets`.
  double eval_node(NodeId n, std::span<const double> p, Sets sets) {
    const std::int32_t idx = plan_index_[n];
    // Cases 1-3 of sect. 2: no conditioning possible or necessary.
    if (idx < 0) return naive_value(n, p);
    const GatePlan& plan = plans_[static_cast<std::size_t>(idx)];
    std::span<const std::uint32_t> w;
    if (sets == Sets::Frozen) {
      w = selection_.of(static_cast<std::size_t>(idx));
      if (w.empty()) return naive_value(n, p);
      prop_.baseline(plan.cone, plan.candidates, p);
    } else {
      prop_.baseline(plan.cone, plan.candidates, p);
      select_w(plan, p);
      w = w_;
      if (sets == Sets::Record) {
        selection_.w.insert(selection_.w.end(), w_.begin(), w_.end());
        selection_.offset.push_back(
            static_cast<std::uint32_t>(selection_.w.size()));
        if (!w.empty()) {
          ++stats_.gates_conditioned;
          stats_.max_w = std::max(stats_.max_w, w.size());
        }
      }
      if (w.empty()) return naive_value(n, p);
    }
    return conditioned_prob(plan, w);
  }

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

  // plan: immutable once build_plan() returns
  const Netlist& net_;
  const CompiledNetlist& cn_;
  const ProtestParams params_;  ///< by value: survives estimator moves
  std::vector<std::int32_t> plan_index_;  ///< node -> plans_ index or -1
  std::vector<GatePlan> plans_;
  InputFanoutCones fanout_cones_;  ///< incremental work lists

  /// The conditioning sets of the last full select run; exact perturbs
  /// select into w_ instead and leave it alone.
  Selection selection_;
  ProtestStats stats_;

  // per-gate scratch
  ConeProp prop_;              ///< also evaluates naive gates
  std::vector<double> delta_;  ///< max_fanin one-point conditional deltas
  std::vector<Pin> pins_;
  std::vector<std::uint32_t> w_;
  std::vector<std::pair<double, std::uint32_t>> scored_;
};

ProtestEstimator::ProtestEstimator(const Netlist& net, ProtestParams params)
    : net_(net), params_(params) {
  if (!net.finalized())
    throw std::logic_error("ProtestEstimator: netlist must be finalized");
}

ProtestEstimator::~ProtestEstimator() = default;
ProtestEstimator::ProtestEstimator(ProtestEstimator&&) noexcept = default;

ProtestEstimator::Evaluator& ProtestEstimator::evaluator() const {
  if (!evaluator_)
    evaluator_ = std::make_unique<Evaluator>(net_, params_);
  return *evaluator_;
}

std::vector<double> ProtestEstimator::signal_probs(
    std::span<const double> input_probs) const {
  validate_input_probs(net_, input_probs);
  Evaluator& ev = evaluator();
  std::vector<double> p = ev.run(input_probs, /*select=*/true);
  stats_ = ev.stats();
  return p;
}

std::vector<double> ProtestEstimator::signal_probs_perturb(
    std::span<const double> base_inputs,
    std::span<const double> base_node_probs, std::size_t input_index,
    double new_p, PerturbMode mode) const {
  // Shared contract with the engine wrapper; the repeat when called
  // through ProtestEngine is O(inputs) and deliberate (direct estimator
  // callers get the same checks).
  validate_perturb_args(net_, base_inputs, base_node_probs, input_index,
                        new_p);
  return evaluator().run_perturb(base_inputs, base_node_probs, input_index,
                                 new_p, mode);
}

std::vector<std::vector<double>> ProtestEstimator::signal_probs_batch(
    std::span<const InputProbs> batch) const {
  for (const InputProbs& t : batch) validate_input_probs(net_, t);
  std::vector<std::vector<double>> out;
  out.reserve(batch.size());
  if (batch.empty()) return out;

  Evaluator& ev = evaluator();
  out.push_back(ev.run(batch[0], /*select=*/true));
  for (std::size_t t = 1; t < batch.size(); ++t)
    out.push_back(ev.run(batch[t], /*select=*/false));
  stats_ = ev.stats();
  return out;
}

}  // namespace protest
