// The incremental perturb paths vs from-scratch evaluation on the
// hill-climb neighborhood workload: the optimizer changes one coordinate
// of the current operating point at a time, so each candidate differs
// from the base tuple in exactly one input.  A full evaluation
// re-propagates every gate for every candidate; the incremental paths
// re-evaluate just the changed input's fanout cone.
//
// Measured at two levels:
//   * engine:    evaluate() per candidate vs perturb() (exact fidelity)
//                and screen() (the base's conditioning sets), and
//   * objective: ObjectiveEvaluator::log_objective per candidate (exact
//                perturbs through the session) vs
//                log_objectives_neighborhood (screens) — the full
//                hill-climb pipeline including observability + detection.
//
// It also records what the session cache keeps per evaluated tuple
// (SessionStats::resident_bytes over resident_results after a default-
// artifact analyze): the tuple, signal probabilities and conditioning
// sets, not the observability and detection views the handles own.
//
// Self-check (exit 1 on failure): every exact perturb equals its
// candidate's full evaluation bit for bit, and every screen equals a full
// evaluation of its candidate under the base's conditioning sets.
//
// Emits BENCH_session_incremental.json.  Run with --quick for a CI smoke
// (tiny workload, still self-checked).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/zoo.hpp"
#include "optimize/objective.hpp"
#include "prob/engine.hpp"
#include "protest/session.hpp"

namespace protest {
namespace {

constexpr int kSteps[] = {8, -8, 4, -4, 2, -2, 1, -1};
constexpr unsigned kDen = 16;

/// A nonzero self-check diff flips this; main() exits 1.
bool g_identical = true;

/// Candidate grid values for one coordinate starting from k = 8.
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

void run_circuit(bench::BenchJson& json, const std::string& circuit,
                 std::size_t max_coords) {
  const Netlist net = make_circuit(circuit);
  const std::size_t coords = std::min(max_coords, net.inputs().size());
  const InputProbs base = uniform_input_probs(net, 8.0 / kDen);
  const std::vector<double> cand = candidate_values();
  std::printf("\n%s: %zu inputs (%zu swept), %zu gates, %zu candidates per "
              "coordinate\n",
              circuit.c_str(), net.inputs().size(), coords, net.num_gates(),
              cand.size());
  std::vector<InputProbs> tuples;  // coordinate-major, like the sweeps
  for (std::size_t i = 0; i < coords; ++i)
    for (double v : cand) {
      InputProbs t = base;
      t[i] = v;
      tuples.push_back(std::move(t));
    }

  // --- engine level ---------------------------------------------------
  const ProtestEngine engine(net);
  std::vector<std::vector<double>> full, exact, screened;
  const double t_full = bench::time_seconds([&] {
    for (const InputProbs& t : tuples) full.push_back(engine.signal_probs(t));
  });
  const Evaluation base_eval = engine.evaluate(base);
  const double t_exact = bench::time_seconds([&] {
    for (std::size_t i = 0; i < coords; ++i)
      for (double v : cand)
        exact.push_back(engine.perturb(base, base_eval, i, v).probs);
  });
  const double t_screen = bench::time_seconds([&] {
    for (std::size_t i = 0; i < coords; ++i)
      for (double v : cand)
        screened.push_back(engine.screen(base, base_eval, i, v));
  });
  std::vector<std::vector<double>> under_base;
  for (const InputProbs& t : tuples)
    under_base.push_back(
        engine.estimator().evaluate_under(t, *base_eval.selection));
  const double diff =
      std::max(max_abs_diff(exact, full), max_abs_diff(screened, under_base));

  // --- objective level (full hill-climb pipeline) ---------------------
  const std::vector<Fault> faults = structural_fault_list(net);
  const std::uint64_t n_param = 10'000;
  const ObjectiveEvaluator eval_exact(net, faults, n_param);
  const ObjectiveEvaluator eval_screen(net, faults, n_param);
  std::vector<std::vector<double>> exact_vals, screen_vals;
  const double t_obj_exact = bench::time_seconds([&] {
    for (std::size_t i = 0; i < coords; ++i) {
      std::vector<double> vals = {eval_exact.log_objective(base)};
      for (std::size_t c = 0; c < cand.size(); ++c)
        vals.push_back(eval_exact.log_objective(tuples[i * cand.size() + c]));
      exact_vals.push_back(std::move(vals));
    }
  });
  const double t_obj_screen = bench::time_seconds([&] {
    for (std::size_t i = 0; i < coords; ++i) {
      const auto nb = eval_screen.log_objectives_neighborhood(base, i, cand);
      std::vector<double> vals = {nb.base};
      vals.insert(vals.end(), nb.candidates.begin(), nb.candidates.end());
      screen_vals.push_back(std::move(vals));
    }
  });
  const double gap = max_abs_diff(exact_vals, screen_vals);

  // --- what the session cache keeps per tuple --------------------------
  AnalysisSession session(net);
  session.analyze(base);  // default artifacts; the handle drops its views
  const SessionStats st = session.stats();
  const double resident_per_result = static_cast<double>(st.resident_bytes) /
                                     static_cast<double>(st.resident_results);

  const double screen_speedup = t_screen > 0.0 ? t_full / t_screen : 0.0;
  const double exact_speedup = t_exact > 0.0 ? t_full / t_exact : 0.0;
  const double obj_speedup =
      t_obj_screen > 0.0 ? t_obj_exact / t_obj_screen : 0.0;
  TextTable t({"level", "fidelity", "tuples", "baseline (s)",
               "incremental (s)", "speedup"});
  t.add_row({"engine", "screen", std::to_string(tuples.size()),
             fmt(t_full, 4), fmt(t_screen, 4), fmt(screen_speedup, 2) + "x"});
  t.add_row({"engine", "exact", std::to_string(tuples.size()),
             fmt(t_full, 4), fmt(t_exact, 4), fmt(exact_speedup, 2) + "x"});
  t.add_row({"objective", "hill-climb", std::to_string(tuples.size()),
             fmt(t_obj_exact, 4), fmt(t_obj_screen, 4),
             fmt(obj_speedup, 2) + "x"});
  std::printf("%s", t.str().c_str());
  std::printf("engine baseline: evaluate() per candidate; objective "
              "baseline: exact log_objective() per candidate\n");
  std::printf("max |incremental - reference| probability diff: %.3g "
              "(expected 0)\n",
              diff);
  std::printf("max |exact - screening| objective gap: %.3g (the screening "
              "fidelity's cost)\n",
              gap);
  std::printf("session cache keeps %.0f bytes per evaluated tuple\n",
              resident_per_result);
  if (diff != 0.0) {
    std::printf("ERROR: incremental paths must reproduce their reference "
                "bit for bit!\n");
    g_identical = false;
  }

  json.metric(circuit + ".tuples", static_cast<double>(tuples.size()));
  json.metric(circuit + ".engine.full_seconds", t_full);
  json.metric(circuit + ".engine.screen_seconds", t_screen);
  json.metric(circuit + ".engine.screen_speedup", screen_speedup);
  json.metric(circuit + ".engine.exact_seconds", t_exact);
  json.metric(circuit + ".engine.exact_speedup", exact_speedup);
  json.metric(circuit + ".objective.exact_seconds", t_obj_exact);
  json.metric(circuit + ".objective.screen_seconds", t_obj_screen);
  json.metric(circuit + ".objective.speedup", obj_speedup);
  json.metric(circuit + ".objective.max_gap", gap);
  json.metric(circuit + ".max_diff", diff);
  json.metric(circuit + ".resident_bytes_per_result", resident_per_result);
}

}  // namespace
}  // namespace protest

int main(int argc, char** argv) {
  using namespace protest;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::print_header(
      "incremental perturb vs from-scratch evaluation (hill-climb "
      "neighborhoods)");
  bench::BenchJson json("session_incremental");
  if (quick) {
    // CI smoke: two coordinates of the ALU, seconds of wall clock.
    run_circuit(json, "alu", 2);
  } else {
    run_circuit(json, "alu", 64);
    // The 16-bit divider is ~23x larger per tuple; sweep a slice.
    run_circuit(json, "div", 8);
  }
  json.write();
  return g_identical ? 0 : 1;
}
