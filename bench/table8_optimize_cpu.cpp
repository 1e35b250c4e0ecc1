// Table 8: CPU time of the input-probability optimization.  Paper:
//
//   | transistors | inputs | optim. test set | CPU (s) |
//   | 368         | 14     | 167             | 6.4     |
//   | 1 274       | 32     | 8 264           | 49.0    |
//   | 2 496       | 48     | 430 10*         | 152.0   |  (* garbled OCR)
//   | 26 450      | 32     | 1 178           | 2 181.0 |
//
// Shape: optimization is far more CPU-intensive than analysis and depends
// on the number of primary inputs as well as circuit size.
#include "bench_util.hpp"
#include "circuits/zoo.hpp"
#include "netlist/tech.hpp"

int main() {
  using namespace protest;
  bench::print_header("Table 8: CPU time for the optimization");

  TextTable t({"circuit", "transistors", "inputs", "optim. test size",
               "CPU (s)", "paper CPU (s)"});
  const double paper_cpu[] = {6.4, 49.0, 152.0, 2181.0};
  // The paper's Table 8 has four rows; we sweep the four smallest family
  // members plus one large one to show the growth law.
  const std::vector<std::string> circuits = {"alu", "comp", "mult", "div",
                                             "mult16"};
  int row = 0;
  for (const std::string& name : circuits) {
    const Netlist net = make_circuit(name);
    SessionOptions popts;
    popts.universe = FaultUniverse::Collapsed;
    popts.estimator.maxvers = 2;  // cheap gradient config (see table5)
    popts.estimator.maxlist = 8;
    popts.estimator.max_candidates = 8;
    const AnalysisSession session(net, popts);
    HillClimbOptions opts;
    opts.max_sweeps = 2;  // bounded sweep budget for the big circuits
    HillClimbResult res;
    const double secs = bench::time_seconds(
        [&] { res = optimize_input_probs(session, 10'000, opts); });
    AnalysisSession full(net);
    const auto pf =
        bench::detectable(full.analyze(res.probs).detection_probs());
    const std::uint64_t n = required_test_length(pf, 0.98, 0.95);
    t.add_row({name, fmt_int(transistor_count(net)),
               std::to_string(net.inputs().size()), bench::fmt_testlen(n),
               fmt(secs, 2), row < 4 ? fmt(paper_cpu[row], 1) : std::string("-")});
    ++row;
  }
  std::printf("%s", t.str().c_str());
  std::printf("\npaper: optimization cost grows with both circuit size and "
              "input count — \"Here the effort depends on the number of "
              "primary inputs, too.\"\n");
  return 0;
}
