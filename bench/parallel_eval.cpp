// Serial vs multi-threaded evaluation on the two hottest workloads:
//
//   * monte-carlo: MonteCarloEngine::compute with the pattern budget
//     sharded across N workers (counter-based per-shard RNG streams, so
//     the estimate is bit-identical to the serial run), and
//   * neighborhood: the hill climber's per-coordinate objective sweeps
//     (ObjectiveEvaluator::log_objectives_neighborhood) fanned across the
//     session's executor via perturb_screen_sweep, every worker screening
//     through the one shared engine.
//
// Emits BENCH_parallel_eval.json.  Targets (8 threads, >= 8 hardware
// threads): >= 3x on the divider Monte-Carlo workload, >= 2x on the
// divider objective neighborhood sweep, with zero result diff in both —
// the speedups are only reachable when the hardware actually has the
// cores (hardware_concurrency is recorded alongside).  Run with --quick
// for a CI smoke (tiny workload, still asserts the zero diff).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/zoo.hpp"
#include "optimize/objective.hpp"
#include "prob/engine.hpp"
#include "util/thread_pool.hpp"

namespace protest {
namespace {

constexpr unsigned kThreads = 8;
constexpr int kSteps[] = {8, -8, 4, -4, 2, -2, 1, -1};
constexpr unsigned kDen = 16;

/// Nonzero serial-vs-parallel diffs flip this; main() exits 1 so the CI
/// smoke run actually fails on a determinism regression.
bool g_determinism_ok = true;

std::vector<double> candidate_values() {
  std::vector<double> vals;
  for (int s : kSteps) {
    const int cand = 8 + s;
    if (cand < 1 || cand > static_cast<int>(kDen) - 1) continue;
    vals.push_back(static_cast<double>(cand) / kDen);
  }
  return vals;
}

double max_abs_diff(const std::vector<std::vector<double>>& a,
                    const std::vector<std::vector<double>>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < a[i].size(); ++j)
      m = std::max(m, std::abs(a[i][j] - b[i][j]));
  return m;
}

void run_monte_carlo(bench::BenchJson& json, const std::string& circuit,
                     std::size_t num_patterns, std::size_t tuples) {
  const Netlist net = make_circuit(circuit);
  std::vector<InputProbs> inputs;
  for (std::size_t t = 0; t < tuples; ++t)
    inputs.push_back(uniform_input_probs(
        net, 0.25 + 0.5 * static_cast<double>(t) / static_cast<double>(tuples)));

  MonteCarloEngineParams params;
  params.num_patterns = num_patterns;
  params.parallel.num_threads = 1;
  const MonteCarloEngine serial(net, params);
  params.parallel.num_threads = kThreads;
  const MonteCarloEngine parallel(net, params);

  std::vector<std::vector<double>> serial_out, parallel_out;
  const double t_serial = bench::time_seconds([&] {
    for (const InputProbs& t : inputs)
      serial_out.push_back(serial.signal_probs(t));
  });
  const double t_parallel = bench::time_seconds([&] {
    for (const InputProbs& t : inputs)
      parallel_out.push_back(parallel.signal_probs(t));
  });
  const double diff = max_abs_diff(serial_out, parallel_out);
  const double speedup = t_parallel > 0.0 ? t_serial / t_parallel : 0.0;

  std::printf("\n%s monte-carlo: %zu patterns x %zu tuples, %zu gates\n",
              circuit.c_str(), num_patterns, tuples, net.num_gates());
  TextTable t({"threads", "seconds", "speedup", "max |diff|"});
  t.add_row({"1", fmt(t_serial, 4), "1.00x", "0"});
  t.add_row({std::to_string(kThreads), fmt(t_parallel, 4),
             fmt(speedup, 2) + "x", fmt(diff, 3)});
  std::printf("%s", t.str().c_str());
  if (diff != 0.0) {
    std::printf("ERROR: sharded Monte-Carlo must be bit-identical!\n");
    g_determinism_ok = false;
  }

  json.metric(circuit + ".monte_carlo.patterns",
              static_cast<double>(num_patterns));
  json.metric(circuit + ".monte_carlo.serial_seconds", t_serial);
  json.metric(circuit + ".monte_carlo.parallel_seconds", t_parallel);
  json.metric(circuit + ".monte_carlo.speedup", speedup);
  json.metric(circuit + ".monte_carlo.max_diff", diff);
}

void run_neighborhood(bench::BenchJson& json, const std::string& circuit,
                      std::size_t max_coords) {
  const Netlist net = make_circuit(circuit);
  const std::size_t coords = std::min(max_coords, net.inputs().size());
  const InputProbs base = uniform_input_probs(net, 8.0 / kDen);
  const std::vector<double> cand = candidate_values();
  const std::vector<Fault> faults = structural_fault_list(net);
  const std::uint64_t n_param = 10'000;

  ParallelConfig one_thread;
  one_thread.num_threads = 1;
  ParallelConfig bench_threads;
  bench_threads.num_threads = kThreads;
  const ObjectiveEvaluator serial(net, faults, n_param, {}, {}, one_thread);
  const ObjectiveEvaluator parallel(net, faults, n_param, {}, {},
                                    bench_threads);

  std::vector<std::vector<double>> serial_vals, parallel_vals;
  const double t_serial = bench::time_seconds([&] {
    for (std::size_t i = 0; i < coords; ++i) {
      const auto nb = serial.log_objectives_neighborhood(base, i, cand);
      std::vector<double> vals = {nb.base};
      vals.insert(vals.end(), nb.candidates.begin(), nb.candidates.end());
      serial_vals.push_back(std::move(vals));
    }
  });
  const double t_parallel = bench::time_seconds([&] {
    for (std::size_t i = 0; i < coords; ++i) {
      const auto nb = parallel.log_objectives_neighborhood(base, i, cand);
      std::vector<double> vals = {nb.base};
      vals.insert(vals.end(), nb.candidates.begin(), nb.candidates.end());
      parallel_vals.push_back(std::move(vals));
    }
  });
  const double diff = max_abs_diff(serial_vals, parallel_vals);
  const double speedup = t_parallel > 0.0 ? t_serial / t_parallel : 0.0;
  const std::size_t tuples = coords * (cand.size() + 1);

  std::printf("\n%s neighborhood sweep: %zu coords x %zu candidates "
              "(%zu tuples), %zu faults\n",
              circuit.c_str(), coords, cand.size(), tuples, faults.size());
  TextTable t({"threads", "seconds", "speedup", "max objective diff"});
  t.add_row({"1", fmt(t_serial, 4), "1.00x", "0"});
  t.add_row({std::to_string(kThreads), fmt(t_parallel, 4),
             fmt(speedup, 2) + "x", fmt(diff, 3)});
  std::printf("%s", t.str().c_str());
  if (diff != 0.0) {
    std::printf("ERROR: the parallel sweep must match the serial path!\n");
    g_determinism_ok = false;
  }

  json.metric(circuit + ".neighborhood.tuples", static_cast<double>(tuples));
  json.metric(circuit + ".neighborhood.serial_seconds", t_serial);
  json.metric(circuit + ".neighborhood.parallel_seconds", t_parallel);
  json.metric(circuit + ".neighborhood.speedup", speedup);
  json.metric(circuit + ".neighborhood.max_objective_diff", diff);
}

}  // namespace
}  // namespace protest

int main(int argc, char** argv) {
  using namespace protest;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::print_header("parallel evaluation layer (serial vs 8 threads)");
  const unsigned hw = ParallelConfig{}.resolved();
  std::printf("hardware threads: %u (speedup targets assume >= %u)\n", hw,
              kThreads);
  bench::BenchJson json("parallel_eval");
  json.metric("hardware_threads", static_cast<double>(hw));
  json.metric("bench_threads", static_cast<double>(kThreads));
  if (quick) {
    // CI smoke: correctness (zero diff) on tiny workloads.
    run_monte_carlo(json, "alu", 20'000, 2);
    run_neighborhood(json, "alu", 2);
  } else {
    run_monte_carlo(json, "alu", 500'000, 8);
    run_monte_carlo(json, "div", 500'000, 4);
    run_neighborhood(json, "alu", 32);
    run_neighborhood(json, "div", 8);
  }
  json.write();
  return g_determinism_ok ? 0 : 1;
}
