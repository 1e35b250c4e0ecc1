// Monte-Carlo signal probabilities: simulate N weighted random patterns and
// count ones per node.  This is the "extrapolate from runs of logic
// simulation" approach of STAFAN [AgJa84] applied to signal probabilities;
// the library uses it as a scalable reference when BDDs blow up.
//
// Sharded sampling and the stream-derivation rule
// -----------------------------------------------
// The pattern space is split into fixed-size SHARDS of
// kMonteCarloShardPatterns patterns each (the last shard may be partial).
// Shard s draws its patterns from a private counter-based RNG stream whose
// state is derived purely from (seed, s) — see monte_carlo_stream_seed():
//
//   state_0 = mix64(seed XOR (s + 1) * 0x9e3779b97f4a7c15)
//   draw_k  = splitmix64(state_0 + k * gamma)        (sequential splitmix)
//
// Within a shard the draw order is: for each 64-pattern block, for each
// input (netlist input order), 64 per-bit draws (top 32 bits compared
// against trunc(p * 2^32), the same thresholding PatternSet::weighted
// uses).  Because the decomposition depends only on (seed, num_patterns)
// and never on the thread count, and because the per-node one-counts are
// integers (summation is exact and order-free), the estimate is
// BIT-IDENTICAL for any number of threads and any word-block width —
// monte_carlo_signal_probs and MonteCarloEngine share this one derivation
// rule (regression-tested in tests/parallel_test.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "prob/signal_prob.hpp"

namespace protest {

class WordSimulator;

/// Patterns per Monte-Carlo shard (128 blocks of 64).  Small enough that
/// the default 100k-pattern budget yields a dozen shards to balance across
/// workers, large enough that per-shard setup is noise.
inline constexpr std::size_t kMonteCarloShardPatterns = 8192;

/// Number of shards covering `num_patterns` patterns.
std::size_t monte_carlo_num_shards(std::size_t num_patterns);

/// Initial RNG state of shard `shard_index` (the documented derivation
/// rule above).  Exposed so tests can pin the stream contract.
std::uint64_t monte_carlo_stream_seed(std::uint64_t seed,
                                      std::uint64_t shard_index);

/// Per-input '1' thresholds for weighted drawing: trunc(p * 2^32), compared
/// against the top 32 bits of each draw (bias < 2^-32).  Throws
/// std::invalid_argument on probabilities outside [0,1].
std::vector<std::uint64_t> monte_carlo_thresholds(
    std::span<const double> input_probs);

/// Simulates one shard and ACCUMULATES per-node one-counts into `ones`
/// (netlist-sized; not cleared).  Each pass draws W = words_per_block()
/// blocks of pattern words straight into the simulator's input slots and
/// evaluates them in one compiled-core sweep, so the hot loop never
/// allocates (no PatternSet is materialized).  The draw order (per block,
/// per input, 64 bits) is EXACTLY the documented stream contract, so the
/// one-counts — and therefore every Monte-Carlo estimate — are
/// bit-identical for every width.  The shard boundary doubles as the
/// cancellation checkpoint (util/cancel.hpp): when the calling thread's
/// CancelToken is cancelled this throws OperationCancelled before
/// simulating, so a cancelled Monte-Carlo job stops within one shard.
void monte_carlo_accumulate_shard(WordSimulator& sim,
                                  std::span<const std::uint64_t> thresholds,
                                  std::size_t shard_index,
                                  std::size_t num_patterns, std::uint64_t seed,
                                  std::span<std::size_t> ones);

std::vector<double> monte_carlo_signal_probs(const Netlist& net,
                                             std::span<const double> input_probs,
                                             std::size_t num_patterns,
                                             std::uint64_t seed);

}  // namespace protest
