// Table 7: CPU time of the PROTEST analysis as a function of circuit size,
// plus the estimated test-set size.  Paper (SIEMENS 7561, ~2.4 MIPS):
//
//   | transistors | estimated test size | CPU (s) |
//   | 368         | 594                 | 0.4     |
//   | 1 274       | 7 800*              | 0.7     |   (* OCR of the paper
//   | 2 496       | 120 000 000         | 1.0     |      is partly garbled;
//   | 26 450      | 3 250*              | 23.0    |      magnitudes only)
//   | 47 636      | 8 284 000           | 41.0    |
//
// Shape: analysis time grows near-linearly with transistor count; test
// sizes vary wildly with circuit structure, not size.  Our absolute times
// are ~10^3-10^4x smaller (2026 hardware vs 2.4 MIPS).
#include "bench_util.hpp"
#include "circuits/zoo.hpp"
#include "netlist/tech.hpp"

int main() {
  using namespace protest;
  bench::print_header("Table 7: CPU time for the analysis");

  TextTable t({"circuit", "transistors", "gates", "est. test size (d=.98,e=.95)",
               "CPU (s)", "paper CPU (s)"});
  const double paper_cpu[] = {0.4, 0.7, 1.0, 5.0, 10.0, 23.0, 41.0};
  int row = 0;
  for (const std::string& name : scaling_family()) {
    const Netlist net = make_circuit(name);
    AnalysisSession session(net);
    AnalysisResult report;
    // The default request materializes observability and detection
    // probabilities inside analyze(), so the timing covers them.
    const double secs = bench::time_seconds([&] {
      report = session.analyze(uniform_input_probs(net, 0.5));
    });
    const auto pf = bench::detectable(report.detection_probs());
    const std::uint64_t n = required_test_length(pf, 0.98, 0.95);
    t.add_row({name, fmt_int(transistor_count(net)), fmt_int(net.num_gates()),
               bench::fmt_testlen(n), fmt(secs, 3),
               row < 7 ? fmt(paper_cpu[row], 1) : std::string("-")});
    ++row;
  }
  std::printf("%s", t.str().c_str());
  std::printf("\npaper rows (transistors -> CPU s): 368->0.4, 1 274->0.7, "
              "2 496->1.0, 26 450->23.0, 47 636->41.0 on a 2.4 MIPS machine;\n"
              "the property to reproduce is near-linear growth in circuit "
              "size.\n");
  return 0;
}
