// The formatted testability report (the tool's sect. 1 output list).
#include <gtest/gtest.h>

#include "circuits/iscas.hpp"
#include "protest/report.hpp"
#include "protest/session.hpp"

namespace protest {
namespace {

TEST(Report, ContainsAllSections) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult rep = session.analyze(uniform_input_probs(net, 0.5));
  const std::string text = report_string(rep);
  EXPECT_NE(text.find("PROTEST testability report"), std::string::npos);
  EXPECT_NE(text.find("signal probabilities and observabilities"), std::string::npos);
  EXPECT_NE(text.find("fault detection probabilities"), std::string::npos);
  EXPECT_NE(text.find("required random-pattern counts"), std::string::npos);
  // Every (d, e) of the default grid appears.
  EXPECT_NE(text.find("0.999"), std::string::npos);
}

TEST(Report, SectionsToggle) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult rep = session.analyze(uniform_input_probs(net, 0.5));
  ReportOptions opts;
  opts.signal_probabilities = false;
  opts.fault_list = false;
  const std::string text = report_string(rep, opts);
  EXPECT_EQ(text.find("signal probabilities and observabilities"), std::string::npos);
  EXPECT_EQ(text.find("fault detection"), std::string::npos);
  EXPECT_NE(text.find("required random-pattern counts"), std::string::npos);
}

TEST(Report, FaultRowsCappedAndSorted) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult rep = session.analyze(uniform_input_probs(net, 0.5));
  ReportOptions opts;
  opts.max_fault_rows = 3;
  const std::string text = report_string(rep, opts);
  EXPECT_NE(text.find("easier faults omitted"), std::string::npos);
  // The hardest c17 fault (a branch s-a-1 with P ~ 0.078) leads the list.
  EXPECT_NE(text.find("0.078"), std::string::npos);
}

TEST(Report, CustomGrid) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult rep = session.analyze(uniform_input_probs(net, 0.5));
  ReportOptions opts;
  // Owned vectors: temporaries are safe (the old span fields dangled here).
  opts.d_grid = {0.5};
  opts.e_grid = {0.9};
  opts.signal_probabilities = false;
  opts.fault_list = false;
  const std::string text = report_string(rep, opts);
  EXPECT_NE(text.find("| 0.50 | 0.900 |"), std::string::npos);
  EXPECT_EQ(text.find("0.999"), std::string::npos);
}

TEST(Report, ZeroMaxFaultRowsRendersAllFaults) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult rep = session.analyze(uniform_input_probs(net, 0.5));
  ReportOptions opts;
  opts.max_fault_rows = 0;  // documented as "all"
  const std::string text = report_string(rep, opts);
  EXPECT_EQ(text.find("easier faults omitted"), std::string::npos);
  // One table row per fault of the session's list.
  std::size_t rows = 0;
  for (const Fault& f : session.faults())
    rows += text.find(to_string(net, f)) != std::string::npos;
  EXPECT_EQ(rows, session.faults().size());
}

}  // namespace
}  // namespace protest
