#include "prob/engine.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "netlist/cone.hpp"
#include "prob/exact.hpp"
#include "prob/monte_carlo.hpp"
#include "prob/naive.hpp"
#include "sim/word_sim.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace protest {

SignalProbEngine::SignalProbEngine(const Netlist& net, std::string name)
    : net_(net), name_(std::move(name)) {
  if (!net.finalized())
    throw std::invalid_argument("signal-probability engine '" + name_ +
                                "': netlist must be finalized (call "
                                "Netlist::finalize() first)");
}

Evaluation SignalProbEngine::evaluate(
    std::span<const double> input_probs) const {
  // Entry checkpoint: a job cancelled before (or between) evaluations
  // never starts another one, whatever the engine type.  The long-running
  // engines add finer-grained checkpoints of their own (the Monte-Carlo
  // shard loop).
  check_cancelled();
  validate_input_probs(net_, input_probs);
  return compute(input_probs);
}

std::vector<double> SignalProbEngine::signal_probs(
    std::span<const double> input_probs) const {
  return evaluate(input_probs).probs;
}

Evaluation SignalProbEngine::perturb(std::span<const double> base_inputs,
                                     const Evaluation& base,
                                     std::size_t input_index,
                                     double new_p) const {
  check_cancelled();
  validate_perturb_args(net_, base_inputs, base.probs, input_index, new_p);
  return compute_perturb(base_inputs, base, input_index, new_p);
}

std::vector<double> SignalProbEngine::screen(
    std::span<const double> base_inputs, const Evaluation& base,
    std::size_t input_index, double new_p) const {
  check_cancelled();
  validate_perturb_args(net_, base_inputs, base.probs, input_index, new_p);
  return compute_screen(base_inputs, base, input_index, new_p);
}

Evaluation SignalProbEngine::compute_perturb(
    std::span<const double> base_inputs, const Evaluation& /*base*/,
    std::size_t input_index, double new_p) const {
  InputProbs perturbed(base_inputs.begin(), base_inputs.end());
  perturbed[input_index] = new_p;
  return compute(perturbed);
}

std::vector<double> SignalProbEngine::compute_screen(
    std::span<const double> base_inputs, const Evaluation& base,
    std::size_t input_index, double new_p) const {
  return compute_perturb(base_inputs, base, input_index, new_p).probs;
}

// --- naive ------------------------------------------------------------------

NaiveEngine::NaiveEngine(const Netlist& net)
    : SignalProbEngine(net, "naive"), fanout_cones_(net) {}

Evaluation NaiveEngine::compute(std::span<const double> input_probs) const {
  return {naive_signal_probs(netlist(), input_probs), nullptr};
}

Evaluation NaiveEngine::compute_perturb(std::span<const double> /*base_inputs*/,
                                        const Evaluation& base,
                                        std::size_t input_index,
                                        double new_p) const {
  // Independence propagation is a pure forward sweep, so only the changed
  // input's transitive fanout can move; every other node keeps its base
  // value bit for bit.
  const Netlist& net = netlist();
  std::vector<double> p = base.probs;
  const NodeId root = net.inputs()[input_index];
  p[root] = new_p;
  std::vector<double> ins;
  for (NodeId n : fanout_cones_.of(input_index)) {
    if (n == root) continue;
    const Gate& g = net.gate(n);
    ins.clear();
    for (NodeId f : g.fanin) ins.push_back(p[f]);
    p[n] = eval_gate_prob(g.type, ins);
  }
  return {std::move(p), nullptr};
}

// --- exact (BDD) ------------------------------------------------------------

ExactBddEngine::ExactBddEngine(const Netlist& net, std::size_t node_limit)
    : SignalProbEngine(net, "exact-bdd"), node_limit_(node_limit) {}

Evaluation ExactBddEngine::compute(std::span<const double> input_probs) const {
  return {exact_signal_probs_bdd(netlist(), input_probs, node_limit_), nullptr};
}

// --- exact (enumeration) ----------------------------------------------------

ExactEnumEngine::ExactEnumEngine(const Netlist& net)
    : SignalProbEngine(net, "exact-enum") {}

Evaluation ExactEnumEngine::compute(std::span<const double> input_probs) const {
  return {exact_signal_probs_enum(netlist(), input_probs), nullptr};
}

// --- Monte-Carlo ------------------------------------------------------------

/// Per-worker Monte-Carlo scratch, keyed by the pool's stable worker
/// index: the word simulator's netlist-sized value store (its input word
/// slots double as the pattern buffer) and the shard one-counts live
/// across shards AND across evaluations, so the hot loop never
/// allocates.
struct MonteCarloEngine::Worker {
  explicit Worker(const Netlist& net) : sim(net), ones(net.size(), 0) {}
  WordSimulator sim;
  std::vector<std::size_t> ones;
};

MonteCarloEngine::MonteCarloEngine(const Netlist& net,
                                   MonteCarloEngineParams params)
    : SignalProbEngine(net, "monte-carlo"), params_(params) {
  if (params_.num_patterns == 0)
    throw std::invalid_argument("monte-carlo engine: num_patterns must be > 0");
}

MonteCarloEngine::~MonteCarloEngine() = default;

bool MonteCarloEngine::internally_parallel() const {
  return params_.parallel.resolved() > 1;
}

Evaluation MonteCarloEngine::compute(
    std::span<const double> input_probs) const {
  const Netlist& net = netlist();
  const std::size_t num_patterns = params_.num_patterns;
  const std::size_t shards = monte_carlo_num_shards(num_patterns);
  const std::vector<std::uint64_t> thresholds =
      monte_carlo_thresholds(input_probs);

  const std::lock_guard<std::mutex> lock(run_mu_);
  if (!exec_) exec_ = make_executor(params_.parallel);
  workers_.resize(exec_->num_workers());
  for (const std::unique_ptr<Worker>& w : workers_)
    if (w) std::fill(w->ones.begin(), w->ones.end(), std::size_t{0});

  // Shard contents depend only on (seed, shard index), never on which
  // worker runs them, and the integer one-counts merge exactly — so the
  // result is bit-identical for any thread count.
  exec_->parallel_for(shards, [&](std::size_t shard, unsigned w) {
    if (!workers_[w]) workers_[w] = std::make_unique<Worker>(net);
    Worker& wk = *workers_[w];
    monte_carlo_accumulate_shard(wk.sim, thresholds, shard, num_patterns,
                                 params_.seed, wk.ones);
  });

  std::vector<std::size_t> ones(net.size(), 0);
  for (const std::unique_ptr<Worker>& w : workers_)
    if (w)
      for (NodeId n = 0; n < net.size(); ++n) ones[n] += w->ones[n];
  std::vector<double> p(net.size());
  for (NodeId n = 0; n < net.size(); ++n)
    p[n] = static_cast<double>(ones[n]) / static_cast<double>(num_patterns);
  return {std::move(p), nullptr};
}

// --- PROTEST ----------------------------------------------------------------

ProtestEngine::ProtestEngine(const Netlist& net, ProtestParams params)
    : SignalProbEngine(net, "protest"), estimator_(net, params) {}

Evaluation ProtestEngine::compute(std::span<const double> input_probs) const {
  return estimator_.evaluate(input_probs);
}

Evaluation ProtestEngine::compute_perturb(std::span<const double> base_inputs,
                                          const Evaluation& base,
                                          std::size_t input_index,
                                          double new_p) const {
  return estimator_.perturb(base_inputs, base, input_index, new_p);
}

std::vector<double> ProtestEngine::compute_screen(
    std::span<const double> base_inputs, const Evaluation& base,
    std::size_t input_index, double new_p) const {
  return estimator_.screen(base_inputs, base, input_index, new_p);
}

// --- factory / registry -----------------------------------------------------

namespace {

std::map<std::string, EngineFactory>& registry() {
  static std::map<std::string, EngineFactory> r = {
      {"naive",
       [](const Netlist& net, const EngineConfig&) {
         return std::make_unique<NaiveEngine>(net);
       }},
      {"exact-bdd",
       [](const Netlist& net, const EngineConfig& cfg) {
         return std::make_unique<ExactBddEngine>(net, cfg.bdd_node_limit);
       }},
      {"exact-enum",
       [](const Netlist& net, const EngineConfig&) {
         return std::make_unique<ExactEnumEngine>(net);
       }},
      {"monte-carlo",
       [](const Netlist& net, const EngineConfig& cfg) {
         return std::make_unique<MonteCarloEngine>(net, cfg.monte_carlo);
       }},
      {"protest",
       [](const Netlist& net, const EngineConfig& cfg) {
         return std::make_unique<ProtestEngine>(net, cfg.protest);
       }},
  };
  return r;
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

std::unique_ptr<SignalProbEngine> make_engine(const std::string& name,
                                              const Netlist& net,
                                              const EngineConfig& config) {
  EngineFactory factory;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    const auto it = registry().find(name);
    if (it != registry().end()) factory = it->second;
  }
  if (!factory) {
    std::string msg = "unknown signal-probability engine '" + name +
                      "' (registered engines:";
    for (const std::string& n : engine_names()) msg += " " + n;
    throw std::invalid_argument(msg + ")");
  }
  return factory(net, config);
}

std::vector<std::string> engine_names() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;
}

void register_engine(const std::string& name, EngineFactory factory) {
  if (name.empty() || !factory)
    throw std::invalid_argument("register_engine: empty name or factory");
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry()[name] = std::move(factory);
}

}  // namespace protest
