// Cross-engine differential fuzzing: the validation harness's fuzz loop.
//
// The repo computes the same quantities five-plus ways — five
// signal-probability engines, two perturbation fidelities, serial and
// threaded evaluation, in-process and served-NDJSON transports, a static
// interval analyzer and an exhaustive fault simulator.  run_fuzz()
// weaponizes that redundancy: it generates seeded random circuits over a
// size/shape grid (plus fixed real .bench corpus circuits), pushes each
// one through the full matrix, and reports every place two legs disagree
// beyond what determinism or the statistical oracle (validate/stats.hpp)
// permits.  Per circuit:
//
//   reference    exact-BDD signal probabilities for the fuzzed tuple
//   engines      every registered engine's estimate inside the static
//                analyzer's proven [lo, hi] interval per net
//                (lint/prob_bounds); exact-enum == exact-BDD to 1e-9;
//                Monte-Carlo within its Hoeffding tolerance of exact
//   determinism  N threads on one shared engine == serial, conditioning
//                sets included; an exact perturb's selection == a full
//                evaluation's of the perturbed tuple; Monte-Carlo serial
//                == N threads; N threads sweeping faults on one shared
//                fault context and executor == the serial analysis — all
//                bit-identical
//   sessions     exact perturb == from-scratch analyze, bit-identical;
//                perturb_screen_sweep (threaded) == perturb_screen
//                (serial), bit-identical per element
//   transport    served analyze payload == AnalysisResult::to_json(0)
//                byte-for-byte on a round-tripped netlist, and
//                serve_ndjson == direct handle_line per line; payloads
//                re-verified by the independent validate/recheck leg
//   faults       exhaustive fault simulation's detection probabilities
//                equal to the BDD of each fault's miter, and inside the
//                static analyzer's per-fault intervals
//
// Every disagreement is serialized as a SELF-CONTAINED repro artifact —
// the full circuit spec (generator params or bench text), input tuple,
// seeds, thread counts, tolerances and the expected/actual values — into
// a corpus directory; run_replay() re-executes exactly that spec, so a
// nightly failure replays deterministically on any machine.  An
// `inject` flag plants a deliberate bug (one perturbed reference value)
// to prove end to end that the harness catches and replays differences.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "circuits/random_circuit.hpp"

namespace protest {
class JsonValue;
}  // namespace protest

namespace protest::validate {

/// One fully self-contained fuzz case: everything needed to rebuild the
/// circuit and re-run every leg bit-identically on another machine.
struct FuzzCircuitSpec {
  std::string name;             ///< display label ("rand-7", "c17", ...)
  bool from_bench = false;      ///< bench_text vs generator params
  std::string bench_text;       ///< the circuit itself when from_bench
  RandomCircuitParams gen;      ///< generator params when !from_bench
  std::vector<double> input_probs;  ///< the fuzzed tuple, explicit
  std::size_t perturb_index = 0;    ///< coordinate the perturb legs move
  double perturb_p = 0.3;
  std::size_t mc_patterns = 16'384;
  std::uint64_t mc_seed = 1;
  unsigned threads = 2;         ///< the "N" of the serial-vs-threads legs
  /// Per-comparison false-positive budget of this circuit's Monte-Carlo
  /// checks (the Bonferroni share run_fuzz assigned it).
  double per_net_alpha = 1e-9;
  bool inject = false;          ///< plant the deliberate reference bug
  std::size_t max_exhaustive_inputs = 10;  ///< fault/recheck leg cap

  std::string to_json(int indent = 0) const;
  /// Throws std::runtime_error on missing/mistyped members.
  static FuzzCircuitSpec from_json_value(const JsonValue& doc);
};

/// One observed disagreement, with the spec that reproduces it embedded.
struct FuzzDisagreement {
  std::string check;   ///< which leg tripped ("mc_vs_exact", ...)
  std::string where;   ///< node / fault / line it tripped on
  std::string detail;  ///< expected vs actual, human-readable
  FuzzCircuitSpec spec;
};

struct FuzzOptions {
  std::size_t num_circuits = 50;  ///< random circuits (corpus rides on top)
  std::uint64_t seed = 1;         ///< master seed for the whole grid
  std::size_t mc_patterns = 16'384;
  /// Harness-wide false-positive budget, Bonferroni-split across every
  /// Monte-Carlo comparison the run makes (validate/stats.hpp).
  double aggregate_alpha = 1e-6;
  unsigned threads = 2;
  /// Where repro artifacts for disagreements get written ("" = don't).
  std::string corpus_dir;
  /// Fixed-seed real circuits (.bench files) fuzzed alongside the grid.
  std::vector<std::string> bench_files;
  /// Plant one deliberate bug in the first circuit's reference values —
  /// the harness must report it and exit non-zero (the watcher-watcher).
  bool inject_disagreement = false;
  /// Circuits with more primary inputs skip the exhaustive legs
  /// (fault-interval containment, independent recheck).
  std::size_t max_exhaustive_inputs = 10;
};

struct FuzzReport {
  std::size_t circuits = 0;
  std::size_t checks = 0;  ///< individual comparisons performed
  std::vector<FuzzDisagreement> disagreements;
  std::vector<std::string> artifact_paths;  ///< repro files written
  bool ok() const { return disagreements.empty(); }
};

/// Runs the full differential matrix over the grid.  `log` (optional)
/// receives one progress line per circuit and one per disagreement.
FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream* log = nullptr);

/// Re-executes the spec inside a repro artifact file exactly; the
/// returned report holds the (re-)observed disagreements.  Throws
/// std::runtime_error when the file is missing or not a repro artifact.
FuzzReport run_replay(const std::string& path, std::ostream* log = nullptr);

/// Serializes one disagreement as a self-contained repro artifact into
/// `corpus_dir` (created if needed); returns the file path.
std::string write_repro_artifact(const FuzzDisagreement& d,
                                 const std::string& corpus_dir,
                                 std::size_t ordinal);

}  // namespace protest::validate
