// Table 4: optimized input signal probabilities for the 51 primary inputs
// of COMP.  The paper's weights all lie on the k/16 grid and push the
// high-order bits toward extreme values (0.88/0.94) so that the equality
// chains stay alive; TI inputs sit near 0.63.  Exact per-pin weights are
// not expected to match (our cascade is a behavioural reconstruction of
// fig. 7) — the shape is: far from 0.5, on-grid, A/B pairs balanced.
#include <cmath>

#include "bench_util.hpp"
#include "circuits/zoo.hpp"

int main() {
  using namespace protest;
  bench::print_header("Table 4: optimized signal probabilities for COMP");

  // Paper's Table 4, keyed by input name.
  const std::pair<const char*, double> paper[] = {
      {"A0", 0.63}, {"B0", 0.56}, {"A1", 0.69}, {"B1", 0.75}, {"A2", 0.38},
      {"B2", 0.38}, {"A3", 0.31}, {"B3", 0.31}, {"A4", 0.13}, {"B4", 0.13},
      {"A5", 0.94}, {"B5", 0.88}, {"A6", 0.88}, {"B6", 0.88}, {"A7", 0.88},
      {"B7", 0.88}, {"A8", 0.88}, {"B8", 0.94}, {"A9", 0.94}, {"B9", 0.94},
      {"A10", 0.88}, {"B10", 0.88}, {"A11", 0.88}, {"B11", 0.94},
      {"A12", 0.88}, {"B12", 0.88}, {"A13", 0.88}, {"B13", 0.94},
      {"A14", 0.94}, {"B14", 0.94}, {"A15", 0.94}, {"B15", 0.94},
      {"A16", 0.88}, {"B16", 0.88}, {"A17", 0.94}, {"B17", 0.94},
      {"A18", 0.94}, {"B18", 0.88}, {"A19", 0.94}, {"B19", 0.94},
      {"A20", 0.94}, {"B20", 0.88}, {"A21", 0.94}, {"B21", 0.88},
      {"A22", 0.94}, {"B22", 0.94}, {"A23", 0.94}, {"B23", 0.88},
      {"TI1", 0.63}, {"TI2", 0.63}, {"TI3", 0.63}};

  const Netlist net = make_circuit("comp");
  SessionOptions popts;
  popts.universe = FaultUniverse::Collapsed;
  const AnalysisSession session(net, popts);
  HillClimbOptions opts;
  opts.max_sweeps = 6;
  const HillClimbResult res = optimize_input_probs(session, 10'000, opts);

  TextTable t({"input", "paper", "ours", "input", "paper", "ours"});
  const auto inputs = net.inputs();
  auto ours_of = [&](const char* name) {
    for (std::size_t i = 0; i < inputs.size(); ++i)
      if (net.name_of(inputs[i]) == name) return res.probs[i];
    return -1.0;
  };
  for (std::size_t i = 0; i + 1 < std::size(paper); i += 2) {
    t.add_row({paper[i].first, fmt(paper[i].second, 2),
               fmt(ours_of(paper[i].first), 2), paper[i + 1].first,
               fmt(paper[i + 1].second, 2), fmt(ours_of(paper[i + 1].first), 2)});
  }
  t.add_row({paper[50].first, fmt(paper[50].second, 2),
             fmt(ours_of(paper[50].first), 2), "", "", ""});
  std::printf("%s", t.str().c_str());

  // Shape checks the paper calls out: "It is remarkable how much the
  // optimal input probabilities differ from the conventionally used 0.5".
  double mean_dist = 0.0;
  int on_grid = 0;
  for (double p : res.probs) {
    mean_dist += std::abs(p - 0.5);
    on_grid += std::abs(p * 16 - std::round(p * 16)) < 1e-9;
  }
  std::printf("\nmean |p - 0.5| = %.3f (paper's Table 4: 0.33); %d/%zu on the "
              "k/16 grid\n",
              mean_dist / static_cast<double>(res.probs.size()),
              on_grid, res.probs.size());
  std::printf("log J_N improved to %.2f after %zu objective evaluations\n",
              res.log_objective, res.evaluations);
  return 0;
}
