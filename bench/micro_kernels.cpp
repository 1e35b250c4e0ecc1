// google-benchmark micro kernels for the expensive primitives: logic
// simulation, fault simulation, signal-probability estimation (naive vs
// PROTEST conditioning), observability, SCOAP and BDD construction.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bdd/bdd.hpp"
#include "circuits/zoo.hpp"
#include "measures/scoap.hpp"
#include "observe/observability.hpp"
#include "prob/engine.hpp"
#include "prob/exact.hpp"
#include "prob/naive.hpp"
#include "sim/fault_sim.hpp"
#include "sim/word_sim.hpp"

namespace protest {
namespace {

const Netlist& circuit(const std::string& name) {
  static std::map<std::string, Netlist> cache;
  auto it = cache.find(name);
  if (it == cache.end()) it = cache.emplace(name, make_circuit(name)).first;
  return it->second;
}

void BM_LogicSim64(benchmark::State& state, const std::string& name) {
  const Netlist& net = circuit(name);
  const PatternSet ps = PatternSet::random(net.inputs().size(), 64, 1);
  WordSimulator sim(net, 1);
  for (auto _ : state) benchmark::DoNotOptimize(sim.run_blocks(ps, 0, 1));
  state.SetItemsProcessed(state.iterations() * 64);
}

void BM_FaultSim(benchmark::State& state, const std::string& name) {
  const Netlist& net = circuit(name);
  const auto faults = collapsed_fault_list(net);
  const PatternSet ps = PatternSet::random(net.inputs().size(), 256, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        simulate_faults(net, faults, ps, FaultSimMode::CountDetections));
  state.SetItemsProcessed(state.iterations() * 256 * faults.size());
}

void BM_NaiveProbs(benchmark::State& state, const std::string& name) {
  const Netlist& net = circuit(name);
  const auto ip = uniform_input_probs(net, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(naive_signal_probs(net, ip));
}

void BM_ProtestEstimator(benchmark::State& state, const std::string& name) {
  const Netlist& net = circuit(name);
  const ProtestEngine est(net);
  const auto ip = uniform_input_probs(net, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(est.signal_probs(ip));
}

void BM_ProtestScreen16(benchmark::State& state, const std::string& name) {
  const Netlist& net = circuit(name);
  const ProtestEngine est(net);
  const InputProbs base = uniform_input_probs(net, 0.5);
  const Evaluation base_eval = est.evaluate(base);
  for (auto _ : state)
    for (std::size_t t = 0; t < 16; ++t)
      benchmark::DoNotOptimize(
          est.screen(base, base_eval, t % base.size(), 0.25));
  state.SetItemsProcessed(state.iterations() * 16);
}

void BM_Observability(benchmark::State& state, const std::string& name) {
  const Netlist& net = circuit(name);
  const auto p = naive_signal_probs(net, uniform_input_probs(net, 0.5));
  for (auto _ : state) benchmark::DoNotOptimize(compute_observability(net, p));
}

void BM_Scoap(benchmark::State& state, const std::string& name) {
  const Netlist& net = circuit(name);
  for (auto _ : state) benchmark::DoNotOptimize(compute_scoap(net));
}

void BM_BddBuild(benchmark::State& state, const std::string& name) {
  const Netlist& net = circuit(name);
  for (auto _ : state) {
    Bdd bdd(static_cast<unsigned>(net.inputs().size()), 4'000'000);
    benchmark::DoNotOptimize(build_node_bdds(net, bdd));
  }
}

}  // namespace
}  // namespace protest

int main(int argc, char** argv) {
  using namespace protest;
  auto reg = [](const std::string& prefix, const std::string& name, auto fn) {
    benchmark::RegisterBenchmark(
        (prefix + "/" + name).c_str(),
        [fn, name](benchmark::State& s) { fn(s, name); });
  };
  for (const char* name : {"c17", "alu", "comp", "mult", "div"}) {
    reg("LogicSim64", name, BM_LogicSim64);
    reg("NaiveProbs", name, BM_NaiveProbs);
    reg("ProtestEstimator", name, BM_ProtestEstimator);
    reg("ProtestScreen16", name, BM_ProtestScreen16);
    reg("Observability", name, BM_Observability);
    reg("Scoap", name, BM_Scoap);
  }
  for (const char* name : {"c17", "alu", "comp"}) reg("FaultSim", name, BM_FaultSim);
  // comp is omitted: with the netlist input order (A0..A23 then B0..B23)
  // the comparator BDD is exponential — the textbook bad-order example.
  for (const char* name : {"c17", "alu"}) reg("BddBuild", name, BM_BddBuild);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
