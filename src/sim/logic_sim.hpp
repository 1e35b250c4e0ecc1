// Reference logic simulation and per-node one-counts over a finalized
// netlist.  This is the substrate for the "static fault simulation"
// PROTEST validates against (sect. 4/5/6) and for the Monte-Carlo /
// STAFAN estimators.
//
// Every pattern-throughput path runs on WordSimulator (sim/word_sim.hpp),
// the compiled W x 64 core.  simulate_single is the independent reference
// the parity tests and the throughput bench check it against: a plain
// walk over the Gate structs with the Boolean eval_gate, one pattern at a
// time, sharing no code with the compiled core.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/pattern.hpp"

namespace protest {

/// Evaluates one pattern (values in netlist input order); returns
/// per-node Boolean values.  Throws std::logic_error on a non-finalized
/// netlist and std::invalid_argument on an input-count mismatch.
std::vector<bool> simulate_single(const Netlist& net,
                                  const std::vector<bool>& input_values);

/// Number of '1' evaluations per node over the whole pattern set, on
/// the compiled core at WordSimulator's default width.
std::vector<std::size_t> count_ones(const Netlist& net, const PatternSet& ps);

}  // namespace protest
