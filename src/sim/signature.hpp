// Signature analysis — the response-compaction half of self test (sect. 1:
// registers "evaluate and compress the responses by signature analysis"
// [HeLe83]).  A MISR (multiple-input signature register) folds one word of
// primary-output values into an LFSR state per pattern; after the run the
// state is the signature.  A fault is BIST-detected iff its signature
// differs from the good one; a fault that flips outputs but lands on the
// same signature has *aliased* (probability ~ 2^-width).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/fault.hpp"
#include "sim/pattern.hpp"

namespace protest {

/// Multiple-input signature register over GF(2), widths 2..32 and 64 (the
/// LFSR tap table's); any other width throws std::invalid_argument.
class Misr {
 public:
  explicit Misr(unsigned width, std::uint64_t init = 0);

  unsigned width() const { return width_; }
  std::uint64_t state() const { return state_; }

  /// One clock: shift with primitive feedback, XOR the input word in.
  void clock(std::uint64_t inputs);

  void reset(std::uint64_t init = 0) { state_ = init & mask_; }

 private:
  unsigned width_;
  std::uint64_t mask_;
  std::uint64_t taps_;
  std::uint64_t state_;
};

/// Signature of the good circuit over a pattern set (outputs are packed
/// LSB-first into the MISR input word; more than 64 outputs fold onto the
/// stages modulo width).
std::uint64_t good_signature(const Netlist& net, const PatternSet& ps,
                             unsigned width, std::uint64_t init = 0);

struct BistResult {
  std::size_t faults = 0;
  std::size_t detected_by_outputs = 0;  ///< some output differs on some pattern
  std::size_t detected_by_signature = 0;
  std::size_t aliased = 0;  ///< output-detected but signature-equal
  double aliasing_rate() const {
    return detected_by_outputs == 0
               ? 0.0
               : static_cast<double>(aliased) /
                     static_cast<double>(detected_by_outputs);
  }
};

/// Full BIST emulation, exact: per block, each fault's FaultCone walk
/// clocks that fault's MISR.  Per fault and block it costs the fault's
/// effect cone plus one O(outputs) MISR clock per valid pattern.
BistResult signature_bist(const Netlist& net, std::span<const Fault> faults,
                          const PatternSet& ps, unsigned width,
                          std::uint64_t init = 0);

}  // namespace protest
