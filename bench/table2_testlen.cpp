// Table 2: size of the random test set for ALU and MULT at d = e = 0.98,
// validated by fault simulation (paper: N = 212 / 607, simulated coverage
// 99.9..100%).
#include "bench_util.hpp"
#include "circuits/zoo.hpp"

int main() {
  using namespace protest;
  bench::print_header("Table 2: size of test sets (d = 0.98, e = 0.98)");

  struct PaperRow {
    const char* name;
    std::uint64_t paper_n;
  };
  TextTable t({"circuit", "N (paper)", "N (ours)", "simulated coverage of",
               "full-set coverage"});
  for (const PaperRow row : {PaperRow{"alu", 212}, PaperRow{"mult", 607}}) {
    const Netlist net = make_circuit(row.name);
    AnalysisSession session(net);
    const std::vector<Fault>& faults = session.faults();
    const AnalysisResult report =
        session.analyze(uniform_input_probs(net, 0.5));
    const std::uint64_t n = report.test_length(0.98, 0.98);

    // Validation exactly like the paper: create pattern sets of size N and
    // fault-simulate.  Coverage is reported over detectable faults (oracle:
    // a long reference run), like the paper's 99.9-100% figures.
    const PatternSet set = PatternSet::weighted(
        report.input_probs(), static_cast<std::size_t>(n), 77);
    const auto sim =
        simulate_faults(net, faults, set, FaultSimMode::FirstDetection);
    const PatternSet oracle_ps =
        net.inputs().size() <= 16
            ? PatternSet::exhaustive(net.inputs().size())
            : PatternSet::random(net.inputs().size(), 200'000, 3);
    const auto oracle =
        simulate_faults(net, faults, oracle_ps, FaultSimMode::FirstDetection);
    std::size_t detectable = 0, detected = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (oracle.first_detect[i] < 0) continue;
      ++detectable;
      detected += sim.first_detect[i] >= 0;
    }
    const double cov_detectable =
        100.0 * static_cast<double>(detected) / static_cast<double>(detectable);
    t.add_row({row.name, fmt_int(row.paper_n), bench::fmt_testlen(n),
               fmt(cov_detectable, 1) + " % of detectable",
               fmt(100.0 * sim.coverage(), 1) + " % of all"});
  }
  std::printf("%s", t.str().c_str());
  std::printf("\npaper validation: \"fault simulation had reached a coverage of"
              " 99.9 - 100%%\" with sets of the required size.\n");
  return 0;
}
