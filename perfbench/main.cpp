// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data DIR] [--out DIR] [--commit SHA]
//   perfbench --make-reference CIRCUIT [--data DIR]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "driver.hpp"

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string reference;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") opts.workload = v;
      else if (a == "--seed") opts.seed = std::stoull(v);
      else if (a == "--seconds") opts.seconds = std::stod(v);
      else if (a == "--trace") opts.trace = v == "1";
      else if (a == "--data") opts.data_dir = v;
      else if (a == "--out") opts.out_dir = v;
      else if (a == "--commit") opts.commit = v;
      else if (a == "--make-reference") reference = v;
      else throw std::invalid_argument("unknown flag " + a);
    }
    if (!reference.empty())
      return perfbench::make_reference(opts, reference);
    if (opts.workload.empty() || !(opts.seconds > 0))
      throw std::invalid_argument("--workload and --seconds > 0 are required");
    return perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
