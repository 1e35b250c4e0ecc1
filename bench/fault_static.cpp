// Static fault analysis on the stress tier: what fraction of the
// collapsed fault list the analyzer settles without simulating a single
// pattern, what it costs, and how much the proven-undetectable prune
// saves the fault simulator.
//
// The cost is split the way a session pays it, on the stress circuit and
// on div (the served structural list): building the tuple-independent
// FaultContext once, then the per-tuple pass serially and on an executor
// with one worker per hardware thread.  A threaded result that differs
// from the serial one in any field is a failure.
//
// The stress family is genuinely redundancy-rich (random gate soup breeds
// constant nodes and blocked cones), so the prune is measured directly on
// it: plain vs pruned FirstDetection runs — never-detected faults stay
// live through every pattern block in the plain run, which is exactly the
// cost the static proof removes.
//
// Emits BENCH_fault_static.json.  Exits nonzero if the analysis is caught
// lying: a proven-undetectable fault the plain simulator detects, a
// pruned run whose first-detect disagrees with the plain run anywhere
// else, a CountDetections estimate outside its static interval
// (simulate_faults_pruned's built-in 6-sigma oracle), or a threaded
// analysis that differs from the serial one.  Optional --min-settled /
// --min-speedup floors serve as CI regression guards.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "lint/fault_analyze.hpp"
#include "sim/fault_sim.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

/// Best-of-`reps` wall time of `f` (min damps scheduler noise).
template <typename F>
double best_seconds(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, bench::time_seconds(f));
  return best;
}

struct Split {
  FaultAnalysis serial;  ///< the per-tuple pass without an executor
  double context_seconds = 0.0;
  double serial_seconds = 0.0;
  bool identical = false;  ///< the threaded pass equals `serial`
};

/// Times the context build, then the per-tuple pass serially and on
/// `exec`, recording `<key>.*` metrics.
Split time_split(const char* key, const Netlist& net,
                 std::span<const Fault> faults, Executor& exec, int reps,
                 bench::BenchJson& json) {
  std::unique_ptr<const FaultContext> ctx;
  Split sp;
  sp.context_seconds = bench::time_seconds(
      [&] { ctx = std::make_unique<const FaultContext>(net); });
  FaultAnalysis threaded;
  sp.serial_seconds = best_seconds(
      reps, [&] { sp.serial = analyze_faults(*ctx, faults, {}); });
  const double t_threaded = best_seconds(
      reps, [&] { threaded = analyze_faults(*ctx, faults, {}, &exec); });
  sp.identical = threaded == sp.serial;
  const double speedup =
      t_threaded > 0.0 ? sp.serial_seconds / t_threaded : 0.0;
  const std::string k = key;
  json.metric(k + ".faults", static_cast<double>(faults.size()));
  json.metric(k + ".context_seconds", sp.context_seconds);
  json.metric(k + ".tuple_serial_seconds", sp.serial_seconds);
  json.metric(k + ".tuple_threaded_seconds", t_threaded);
  json.metric(k + ".tuple_speedup", speedup);
  json.metric(k + ".threaded_identical", sp.identical ? 1.0 : 0.0);
  std::printf(
      "%s: %zu faults; context %.3fs, per tuple %.3fs serial, %.3fs on %u "
      "workers (%.2fx), %s\n",
      key, faults.size(), sp.context_seconds, sp.serial_seconds, t_threaded,
      exec.num_workers(), speedup, sp.identical ? "identical" : "DIFFERENT");
  return sp;
}

}  // namespace
}  // namespace protest

int main(int argc, char** argv) {
  using namespace protest;

  bool quick = false;
  double min_settled = 0.0;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--min-settled") == 0 && i + 1 < argc) {
      min_settled = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--min-settled X] [--min-speedup X]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header("static fault analysis: settlement and sim pruning");
  bench::BenchJson json("fault_static");
  json.metric("quick", quick ? 1.0 : 0.0);

  const std::size_t num_gates = quick ? 10'000 : 100'000;
  const Netlist net = make_random_circuit(stress_circuit_params(num_gates));
  const std::vector<Fault> faults = collapsed_fault_list(net);
  std::printf("\ncircuit: %zu inputs, %zu gates; %zu collapsed faults\n",
              net.inputs().size(), net.num_gates(), faults.size());
  json.metric("circuit.gates", static_cast<double>(net.num_gates()));
  json.metric("circuit.faults", static_cast<double>(faults.size()));

  // --- static settlement: context once, then the per-tuple pass -------------
  Executor exec(ParallelConfig{}.resolved());
  json.metric("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  json.metric("bench_threads", static_cast<double>(exec.num_workers()));
  const Split stress = time_split("stress", net, faults, exec, quick ? 3 : 1,
                                  json);
  const FaultAnalysis& fa = stress.serial;
  const Netlist div = make_circuit("div");
  const bool div_identical =
      time_split("div", div, structural_fault_list(div), exec, 5, json)
          .identical;
  // The one-shot analyze_faults is exactly the context build plus the
  // serial pass.
  const double t_analyze = stress.context_seconds + stress.serial_seconds;
  json.metric("analyze.seconds", t_analyze);
  json.metric("analyze.faults_per_sec",
              t_analyze > 0.0 ? static_cast<double>(faults.size()) / t_analyze
                              : 0.0);
  json.metric("analyze.settled_fraction", fa.settled_fraction());
  json.metric("analyze.proven_undetectable",
              static_cast<double>(fa.undetectable));
  json.metric("analyze.unexcitable", static_cast<double>(fa.unexcitable));
  json.metric("analyze.unobservable", static_cast<double>(fa.unobservable));
  json.metric("analyze.proven_detectable", static_cast<double>(fa.detectable));
  json.metric("analyze.uncertain", static_cast<double>(fa.uncertain));
  json.metric("analyze.truncated_sweeps",
              static_cast<double>(fa.truncated_sweeps));
  json.metric("analyze.learned_constants",
              static_cast<double>(fa.learned_constants));
  TextTable census({"class", "faults", "fraction"});
  const auto frac = [&](std::size_t n) {
    return fmt(static_cast<double>(n) / static_cast<double>(faults.size()), 3);
  };
  census.add_row({"proven undetectable", fmt_int(fa.undetectable),
                  frac(fa.undetectable)});
  census.add_row({"  unexcitable", fmt_int(fa.unexcitable),
                  frac(fa.unexcitable)});
  census.add_row({"  unobservable", fmt_int(fa.unobservable),
                  frac(fa.unobservable)});
  census.add_row({"proven detectable", fmt_int(fa.detectable),
                  frac(fa.detectable)});
  census.add_row({"uncertain", fmt_int(fa.uncertain), frac(fa.uncertain)});
  std::printf("%s", census.str().c_str());
  std::printf("analysis: %.2fs, settled statically: %.1f %%\n", t_analyze,
              100.0 * fa.settled_fraction());

  // --- fault-sim pruning ----------------------------------------------------
  const std::size_t num_patterns = quick ? 4096 : 16384;
  const int reps = quick ? 1 : 3;
  const PatternSet ps =
      PatternSet::random(net.inputs().size(), num_patterns, /*seed=*/1985);
  json.metric("fault_sim.patterns", static_cast<double>(num_patterns));
  FaultSimResult plain, pruned;
  const double t_plain = best_seconds(reps, [&] {
    plain = simulate_faults(net, faults, ps, FaultSimMode::FirstDetection);
  });
  const double t_pruned = best_seconds(reps, [&] {
    pruned =
        simulate_faults_pruned(net, faults, ps, FaultSimMode::FirstDetection, fa);
  });
  const double speedup = t_pruned > 0.0 ? t_plain / t_pruned : 0.0;
  json.metric("fault_sim.plain_seconds", t_plain);
  json.metric("fault_sim.pruned_seconds", t_pruned);
  json.metric("fault_sim.pruning_speedup", speedup);
  json.metric("fault_sim.coverage", plain.coverage());
  std::printf(
      "first-detection sim over %zu patterns: plain %.3fs, pruned %.3fs "
      "(%.2fx), coverage %.3f\n",
      num_patterns, t_plain, t_pruned, speedup, plain.coverage());

  // --- soundness gates ------------------------------------------------------
  // 1. The plain simulator must agree fault-by-fault: proven-undetectable
  //    faults are never detected, everything else is bit-identical.
  std::size_t contradicted = 0, mismatched = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (fa.bounds[i].verdict == FaultClass::ProvenUndetectable) {
      if (plain.first_detect[i] >= 0) ++contradicted;
    } else if (plain.first_detect[i] != pruned.first_detect[i]) {
      ++mismatched;
    }
  }
  json.metric("soundness.undetectable_contradicted",
              static_cast<double>(contradicted));
  json.metric("soundness.first_detect_mismatches",
              static_cast<double>(mismatched));

  // 2. The 6-sigma interval oracle on a CountDetections run (a subset
  //    keeps the quadratic-ish count mode affordable at full size).
  const std::size_t subset = std::min<std::size_t>(faults.size(), 20'000);
  const std::span<const Fault> sub_faults =
      std::span<const Fault>(faults).first(subset);
  FaultAnalysis sub_fa;
  sub_fa.bounds.assign(fa.bounds.begin(),
                       fa.bounds.begin() + static_cast<std::ptrdiff_t>(subset));
  const PatternSet count_ps =
      PatternSet::random(net.inputs().size(), quick ? 1024 : 2048, 7);
  bool oracle_ok = true;
  std::string oracle_msg;
  try {
    simulate_faults_pruned(net, sub_faults, count_ps,
                           FaultSimMode::CountDetections, sub_fa);
  } catch (const std::exception& e) {
    oracle_ok = false;
    oracle_msg = e.what();
  }
  json.metric("soundness.interval_oracle_ok", oracle_ok ? 1.0 : 0.0);
  std::printf("soundness: %zu contradicted, %zu mismatched, oracle %s\n",
              contradicted, mismatched, oracle_ok ? "PASS" : "FAIL");

  json.write();

  if (!stress.identical || !div_identical) {
    std::fprintf(stderr,
                 "FAIL: the threaded fault analysis differs from the serial "
                 "one (%s)\n",
                 stress.identical ? "div" : "stress");
    return 1;
  }
  if (contradicted != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu proven-undetectable fault(s) detected by the "
                 "plain simulator\n",
                 contradicted);
    return 1;
  }
  if (mismatched != 0) {
    std::fprintf(stderr,
                 "FAIL: pruned first-detect diverges from plain on %zu "
                 "fault(s)\n",
                 mismatched);
    return 1;
  }
  if (!oracle_ok) {
    std::fprintf(stderr, "FAIL: interval oracle: %s\n", oracle_msg.c_str());
    return 1;
  }
  if (min_settled > 0.0 && fa.settled_fraction() < min_settled) {
    std::fprintf(stderr, "FAIL: settled fraction %.3f below floor %.3f\n",
                 fa.settled_fraction(), min_settled);
    return 1;
  }
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: pruning speedup %.2fx below floor %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
