#include "prob/monte_carlo.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "prob/naive.hpp"
#include "sim/word_sim.hpp"
#include "util/cancel.hpp"

namespace protest {
namespace {

/// splitmix64 [Steele et al.], the counter-based generator behind the
/// shard streams: trivially seekable, no warm-up, passes BigCrush.
constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t splitmix64_next(std::uint64_t& state) {
  return mix64(state += kGamma);
}

}  // namespace

std::size_t monte_carlo_num_shards(std::size_t num_patterns) {
  return (num_patterns + kMonteCarloShardPatterns - 1) /
         kMonteCarloShardPatterns;
}

std::uint64_t monte_carlo_stream_seed(std::uint64_t seed,
                                      std::uint64_t shard_index) {
  // Mixing (seed, shard) through the finalizer scatters the shard streams
  // pseudo-randomly over the 2^64 splitmix state circle; a shard consumes
  // ~2^19 states, so window overlaps are birthday-negligible.
  return mix64(seed ^ ((shard_index + 1) * kGamma));
}

std::vector<std::uint64_t> monte_carlo_thresholds(
    std::span<const double> input_probs) {
  std::vector<std::uint64_t> thresholds(input_probs.size());
  for (std::size_t i = 0; i < input_probs.size(); ++i) {
    // Guard here, not just at the engine layer: a negative double to
    // unsigned is UB, and the pre-shard code threw on out-of-range
    // probabilities from every entry point (PatternSet::weighted).
    if (!(input_probs[i] >= 0.0 && input_probs[i] <= 1.0))
      throw std::invalid_argument(
          "monte_carlo_thresholds: probability outside [0,1]");
    thresholds[i] = static_cast<std::uint64_t>(input_probs[i] * 4294967296.0);
  }
  return thresholds;
}

void monte_carlo_accumulate_shard(WordSimulator& sim,
                                  std::span<const std::uint64_t> thresholds,
                                  std::size_t shard_index,
                                  std::size_t num_patterns, std::uint64_t seed,
                                  std::span<std::size_t> ones) {
  // A cancelled analyze stops before simulating another 8192 patterns;
  // because a shard either completes or contributes nothing, the partial
  // one-counts are simply discarded by the unwind.
  check_cancelled();
  const std::size_t begin = shard_index * kMonteCarloShardPatterns;
  const std::size_t count =
      std::min(kMonteCarloShardPatterns, num_patterns - begin);
  const std::size_t num_blocks = (count + 63) / 64;
  const std::size_t num_inputs = thresholds.size();
  const std::size_t num_nodes = ones.size();
  const std::size_t W = sim.words_per_block();

  std::uint64_t state = monte_carlo_stream_seed(seed, shard_index);
  for (std::size_t b = 0; b < num_blocks; b += W) {
    const std::size_t wb = std::min(W, num_blocks - b);
    // Stream contract order: per block, per input, 64 per-bit draws.
    // Words beyond wb keep stale values; their node results are never
    // accumulated.
    for (std::size_t w = 0; w < wb; ++w) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        const std::uint64_t threshold = thresholds[i];
        std::uint64_t word = 0;
        for (int bit = 0; bit < 64; ++bit)
          if ((splitmix64_next(state) >> 32) < threshold)
            word |= std::uint64_t{1} << bit;
        sim.input_words(i)[w] = word;
      }
    }
    sim.run();
    const std::vector<std::uint64_t>& vals = sim.values();
    // Only the last block of the shard can be partial.
    const std::size_t rem = count - (b + wb - 1) * 64;
    const std::uint64_t last_mask =
        rem >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
    for (std::size_t n = 0; n < num_nodes; ++n) {
      const std::uint64_t* v = vals.data() + n * W;
      std::size_t acc = 0;
      for (std::size_t w = 0; w + 1 < wb; ++w)
        acc += static_cast<std::size_t>(std::popcount(v[w]));
      acc += static_cast<std::size_t>(std::popcount(v[wb - 1] & last_mask));
      ones[n] += acc;
    }
  }
}

std::vector<double> monte_carlo_signal_probs(const Netlist& net,
                                             std::span<const double> input_probs,
                                             std::size_t num_patterns,
                                             std::uint64_t seed) {
  validate_input_probs(net, input_probs);
  const std::vector<std::uint64_t> thresholds =
      monte_carlo_thresholds(input_probs);
  WordSimulator sim(net);
  std::vector<std::size_t> ones(net.size(), 0);
  const std::size_t shards = monte_carlo_num_shards(num_patterns);
  for (std::size_t s = 0; s < shards; ++s)
    monte_carlo_accumulate_shard(sim, thresholds, s, num_patterns, seed, ones);
  std::vector<double> p(net.size());
  for (NodeId n = 0; n < net.size(); ++n)
    p[n] = static_cast<double>(ones[n]) / static_cast<double>(num_patterns);
  return p;
}

}  // namespace protest
