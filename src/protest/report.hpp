// A plain-text rendering of one AnalysisResult — the deliverable list of
// sect. 1: signal probability per node, detection probability per fault,
// required pattern counts for a (d, e) grid.  Rendered as aligned tables;
// the CLI prints its own shorter summary, so this is the library's
// full-length text report for callers that hold a result.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "protest/session.hpp"

namespace protest {

struct ReportOptions {
  bool signal_probabilities = true;   ///< per-node p1 + observability
  bool fault_list = true;             ///< per-fault detection probability
  std::size_t max_fault_rows = 40;    ///< 0 = all (hardest first)
  /// Grids for the required-pattern-count table.  Owned vectors (callers
  /// used to pass spans that silently dangled on temporaries); the
  /// defaults are the paper's (d, e) combinations.
  std::vector<double> d_grid = {1.0, 0.98};
  std::vector<double> e_grid = {0.95, 0.98, 0.999};
};

/// Writes the full testability report for one analyzed tuple; the
/// observability and detection probabilities are computed on first use.
void write_report(std::ostream& out, const AnalysisResult& result,
                  ReportOptions opts = {});

std::string report_string(const AnalysisResult& result,
                          ReportOptions opts = {});

}  // namespace protest
