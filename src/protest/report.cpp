#include "protest/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "analysis/table.hpp"
#include "testlen/test_length.hpp"

namespace protest {

void write_report(std::ostream& out, const AnalysisResult& result,
                  ReportOptions opts) {
  const Netlist& net = result.netlist();
  const std::vector<Fault>& faults = result.faults();
  const std::vector<double>& input_probs = result.input_probs();
  out << "PROTEST testability report\n"
      << "==========================\n"
      << "circuit: " << net.inputs().size() << " inputs, "
      << net.outputs().size() << " outputs, " << net.num_gates() << " gates; "
      << faults.size() << " faults analyzed\n";
  if (!result.engine().empty())
    out << "signal-probability engine: " << result.engine() << "\n";

  out << "\ninput signal probabilities:\n ";
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out << ' ' << net.name_of(inputs[i]) << '=' << fmt(input_probs[i], 3);
    if (i % 8 == 7 && i + 1 < inputs.size()) out << "\n ";
  }
  out << '\n';

  if (opts.signal_probabilities) {
    const std::vector<double>& signal_probs = result.signal_probs();
    const std::vector<double>& stem = result.observability().stem;
    out << "\nsignal probabilities and observabilities:\n";
    TextTable t({"node", "P(1)", "s(x)"});
    for (NodeId n = 0; n < net.size(); ++n) {
      if (net.is_input(n)) continue;
      t.add_row({net.name_of(n), fmt(signal_probs[n], 4), fmt(stem[n], 4)});
    }
    out << t.str();
  }

  const std::vector<double>& detection_probs = result.detection_probs();
  if (opts.fault_list) {
    out << "\nfault detection probabilities (hardest first):\n";
    std::vector<std::size_t> order(faults.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return detection_probs[a] < detection_probs[b];
    });
    const std::size_t rows = opts.max_fault_rows == 0
                                 ? order.size()
                                 : std::min(opts.max_fault_rows, order.size());
    TextTable t({"fault", "P_detect"});
    for (std::size_t i = 0; i < rows; ++i)
      t.add_row({to_string(net, faults[order[i]]),
                 fmt(detection_probs[order[i]], 6)});
    out << t.str();
    if (rows < order.size())
      out << "(" << order.size() - rows << " easier faults omitted)\n";
  }

  out << "\nrequired random-pattern counts:\n";
  TextTable t({"d", "e", "N"});
  for (double d : opts.d_grid)
    for (double e : opts.e_grid) {
      const std::uint64_t n = required_test_length(detection_probs, d, e);
      t.add_row({fmt(d, 2), fmt(e, 3),
                 n == kInfiniteTestLength ? "unreachable" : fmt_int(n)});
    }
  out << t.str();
}

std::string report_string(const AnalysisResult& result, ReportOptions opts) {
  std::ostringstream os;
  write_report(os, result, std::move(opts));
  return os.str();
}

}  // namespace protest
