// Raw simulation throughput of the compiled columnar core per word width
// on the 100k-gate stress circuit: gate-evaluations/sec, Mpatterns/sec and
// speedup over W = 1, plus .bench write/parse rates for the same netlist.
// Single-threaded by design — this measures the inner loop the
// Monte-Carlo shards and the fault simulator sit on, and thread scaling
// is bench_parallel_eval's job.
//
// Emits BENCH_sim_throughput.json.  Exits nonzero if parity is violated
// (max diff must be exactly 0: every width against W = 1 over the whole
// parity set, and W = 1 against the simulate_single reference on one full
// block) or if the optional --min-gevals-per-sec / --min-speedup floors
// are not met — the CI release job runs `--quick` with conservative
// floors as a regression guard.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuits/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/compiled.hpp"
#include "sim/logic_sim.hpp"
#include "sim/pattern.hpp"
#include "sim/word_sim.hpp"

namespace protest {
namespace {

struct Rate {
  double seconds = 0.0;
  double gevals_per_sec = 0.0;
  double mpatterns_per_sec = 0.0;
};

Rate rate_of(double seconds, std::size_t gates, std::size_t patterns) {
  Rate r;
  r.seconds = seconds;
  if (seconds > 0.0) {
    r.gevals_per_sec =
        static_cast<double>(gates) * static_cast<double>(patterns) / seconds;
    r.mpatterns_per_sec = static_cast<double>(patterns) / seconds / 1e6;
  }
  return r;
}

/// Best-of-`reps` wall time of `f` (min damps scheduler noise).
template <typename F>
double best_seconds(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, bench::time_seconds(f));
  return best;
}

void record(bench::BenchJson& json, const std::string& key, const Rate& r) {
  json.metric(key + ".seconds", r.seconds);
  json.metric(key + ".gevals_per_sec", r.gevals_per_sec);
  json.metric(key + ".mpatterns_per_sec", r.mpatterns_per_sec);
}

/// Exact width-`words`-vs-W=1 comparison over every node and block of
/// `ps`: returns the maximum |W - W1| over all value words (0 or 1 — any
/// mismatching bit makes it 1).
std::uint64_t parity_max_diff(const Netlist& net, const PatternSet& ps,
                              std::size_t words) {
  WordSimulator w1(net, 1);
  WordSimulator sim(net, words);
  std::uint64_t max_diff = 0;
  for (std::size_t b = 0; b < ps.num_blocks(); b += words) {
    const std::size_t count = std::min(words, ps.num_blocks() - b);
    sim.run_blocks(ps, b, count);
    for (std::size_t w = 0; w < count; ++w) {
      const auto& ref = w1.run_blocks(ps, b + w, 1);
      const std::uint64_t mask = ps.valid_mask(b + w);
      for (NodeId n = 0; n < net.size(); ++n)
        if (((sim.word(n, w) ^ ref[n]) & mask) != 0) max_diff = 1;
    }
  }
  return max_diff;
}

/// W = 1 against the simulate_single reference on the first block of `ps`,
/// which must be full (the Gate walk evaluates one pattern per pass, so
/// one block, not all).
std::uint64_t reference_max_diff(const Netlist& net, const PatternSet& ps) {
  WordSimulator w1(net, 1);
  const auto& vals = w1.run_blocks(ps, 0, 1);
  std::vector<bool> in(ps.num_inputs());
  for (std::size_t p = 0; p < 64; ++p) {
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = ps.get(p, i);
    const std::vector<bool> ref = simulate_single(net, in);
    for (NodeId n = 0; n < net.size(); ++n)
      if (((vals[n] >> p) & 1) != ref[n]) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace protest

int main(int argc, char** argv) {
  using namespace protest;

  bool quick = false;
  double min_gevals = 0.0;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--min-gevals-per-sec") == 0 &&
               i + 1 < argc) {
      min_gevals = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--min-gevals-per-sec X] "
                   "[--min-speedup X]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header("simulation throughput: compiled core per word width");
  bench::BenchJson json("sim_throughput");
  json.metric("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  json.metric("quick", quick ? 1.0 : 0.0);

  const std::size_t num_gates = 100'000;
  const Netlist net = make_random_circuit(stress_circuit_params(num_gates));
  const CompiledNetlist& cn = net.compiled();
  std::printf("\ncircuit: %zu inputs, %zu gates, depth %zu\n",
              net.inputs().size(), net.num_gates(),
              static_cast<std::size_t>(cn.depth()));
  json.metric("circuit.gates", static_cast<double>(net.num_gates()));
  json.metric("circuit.inputs", static_cast<double>(net.inputs().size()));
  json.metric("circuit.depth", static_cast<double>(cn.depth()));

  const std::size_t num_patterns = quick ? 64 * 64 : 64 * 512;
  const int reps = quick ? 1 : 3;
  const PatternSet ps = PatternSet::random(net.inputs().size(), num_patterns,
                                           /*seed=*/1985);
  const std::size_t gates = net.num_gates();

  // --- simulation throughput ------------------------------------------------
  TextTable table({"simulator", "seconds", "Gevals/s", "Mpat/s", "speedup"});
  Rate r_w1;
  double best_gevals = 0.0;
  for (const std::size_t w : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                              std::size_t{16}}) {
    WordSimulator sim(net, w);
    const Rate r = rate_of(
        best_seconds(reps,
                     [&] {
                       for (std::size_t b = 0; b < ps.num_blocks(); b += w)
                         sim.run_blocks(ps, b,
                                        std::min(w, ps.num_blocks() - b));
                     }),
        gates, num_patterns);
    if (w == 1) r_w1 = r;
    const std::string key = "compiled.w" + std::to_string(w);
    record(json, key, r);
    const double speedup = r.seconds > 0.0 ? r_w1.seconds / r.seconds : 0.0;
    json.metric(key + ".speedup_vs_w1", speedup);
    table.add_row({"compiled W=" + std::to_string(w), fmt(r.seconds, 4),
                   fmt(r.gevals_per_sec / 1e9, 3),
                   fmt(r.mpatterns_per_sec, 3), fmt(speedup, 2) + "x"});
    if (w >= 4) best_gevals = std::max(best_gevals, r.gevals_per_sec);
  }
  std::printf("%s", table.str().c_str());
  const double best_speedup =
      r_w1.gevals_per_sec > 0.0 ? best_gevals / r_w1.gevals_per_sec : 0.0;
  json.metric("best_w4plus.gevals_per_sec", best_gevals);
  json.metric("best_w4plus.speedup_vs_w1", best_speedup);
  std::printf("best W>=4 vs W=1: %.2fx\n", best_speedup);

  // --- parity (exact) -------------------------------------------------------
  const PatternSet parity_ps =
      PatternSet::random(net.inputs().size(), quick ? 640 : 2048, 77);
  std::uint64_t max_diff = reference_max_diff(net, parity_ps);
  for (const std::size_t w : {std::size_t{4}, std::size_t{8}, std::size_t{16}})
    max_diff = std::max(max_diff, parity_max_diff(net, parity_ps, w));
  json.metric("parity.max_diff", static_cast<double>(max_diff));
  std::printf("parity max diff (W vs W=1, W=1 vs simulate_single): %llu\n",
              static_cast<unsigned long long>(max_diff));

  // --- .bench write/parse rate ---------------------------------------------
  std::string text;
  const double t_write =
      best_seconds(reps, [&] { text = write_bench_string(net); });
  Netlist reread;
  const double t_parse =
      best_seconds(reps, [&] { reread = read_bench_string(text); });
  const auto lines = static_cast<double>(
      std::count(text.begin(), text.end(), '\n'));
  json.metric("bench_io.lines", lines);
  json.metric("bench_io.write_seconds", t_write);
  json.metric("bench_io.parse_seconds", t_parse);
  json.metric("bench_io.parse_lines_per_sec",
              t_parse > 0.0 ? lines / t_parse : 0.0);
  std::printf("bench io: %.0f lines, write %.3fs, parse %.3fs (%.2fM lines/s)\n",
              lines, t_write, t_parse,
              t_parse > 0.0 ? lines / t_parse / 1e6 : 0.0);
  const bool stable = write_bench_string(reread) == text;
  json.metric("bench_io.roundtrip_stable", stable ? 1.0 : 0.0);

  json.write();

  if (max_diff != 0) {
    std::fprintf(stderr, "FAIL: simulator outputs differ\n");
    return 1;
  }
  if (!stable) {
    std::fprintf(stderr, "FAIL: .bench round-trip not byte-stable\n");
    return 1;
  }
  if (min_gevals > 0.0 && best_gevals < min_gevals) {
    std::fprintf(stderr, "FAIL: best W>=4 rate %.3g gate-evals/s below floor %.3g\n",
                 best_gevals, min_gevals);
    return 1;
  }
  if (min_speedup > 0.0 && best_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: best W>=4 speedup %.2fx below floor %.2fx\n",
                 best_speedup, min_speedup);
    return 1;
  }
  return 0;
}
