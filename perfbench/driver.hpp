// The repository benchmark's driver: set-up, the timed closed-loop pass,
// the correctness oracle, and (with --trace 1) the layer-split traced pass.
// See perfbench/README.md for the workloads and metric definitions.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the committed fidelity references.
  std::string data_dir = "perfbench/reference";
  /// Where spans and the detailed result are written.
  std::string out_dir = ".bench_build/results";
  std::string commit = "unknown";
};

/// Runs one workload; prints the result line last.  Returns the exit code.
int run_workload(const Options& opts);

/// Fault-simulates `circuit` with Table 1's pattern set (100,000 random
/// patterns of seed 1985) and writes the per-fault detection counts as the
/// circuit's fidelity reference under opts.data_dir.
int make_reference(const Options& opts, const std::string& circuit);

}  // namespace perfbench
