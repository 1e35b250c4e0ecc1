#include "sim/pattern.hpp"

#include <random>
#include <stdexcept>
#include <string>

namespace protest {
namespace {

/// num_inputs x num_blocks words, or std::length_error when that is more
/// than a vector can hold (including products that would wrap).
std::size_t checked_words(std::size_t num_inputs, std::size_t num_blocks) {
  const std::size_t max = std::vector<std::uint64_t>().max_size();
  if (num_blocks != 0 && num_inputs > max / num_blocks)
    throw std::length_error("PatternSet: " + std::to_string(num_inputs) +
                            " inputs x " + std::to_string(num_blocks) +
                            " blocks of 64 patterns is too large");
  return num_inputs * num_blocks;
}

}  // namespace

PatternSet::PatternSet(std::size_t num_inputs, std::size_t num_patterns)
    : num_inputs_(num_inputs),
      num_patterns_(num_patterns),
      // Rounded up; (num_patterns + 63) / 64 would wrap near SIZE_MAX.
      num_blocks_(num_patterns / 64 + (num_patterns % 64 != 0)),
      words_(checked_words(num_inputs, num_blocks_), 0) {
  if (num_patterns == 0)
    throw std::invalid_argument("PatternSet: need at least one pattern");
}

bool PatternSet::get(std::size_t pattern, std::size_t input) const {
  return (word(input, pattern / 64) >> (pattern % 64)) & 1u;
}

void PatternSet::set(std::size_t pattern, std::size_t input, bool v) {
  std::uint64_t w = word(input, pattern / 64);
  const std::uint64_t bit = std::uint64_t{1} << (pattern % 64);
  w = v ? (w | bit) : (w & ~bit);
  set_word(input, pattern / 64, w);
}

std::uint64_t PatternSet::valid_mask(std::size_t block) const {
  if (block + 1 < num_blocks_) return ~std::uint64_t{0};
  const std::size_t rem = num_patterns_ % 64;
  if (rem == 0) return ~std::uint64_t{0};
  return (std::uint64_t{1} << rem) - 1;
}

PatternSet PatternSet::random(std::size_t num_inputs,
                              std::size_t num_patterns, std::uint64_t seed) {
  PatternSet ps(num_inputs, num_patterns);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < num_inputs; ++i)
    for (std::size_t b = 0; b < ps.num_blocks_; ++b)
      ps.set_word(i, b, rng());
  return ps;
}

PatternSet PatternSet::weighted(std::span<const double> probs,
                                std::size_t num_patterns,
                                std::uint64_t seed) {
  PatternSet ps(probs.size(), num_patterns);
  std::mt19937_64 rng(seed);
  // Threshold comparison on 32-bit draws: bias < 2^-32, far below any
  // quantity the tool works with.
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] < 0.0 || probs[i] > 1.0)
      throw std::invalid_argument("PatternSet::weighted: probability outside [0,1]");
    const std::uint64_t threshold =
        static_cast<std::uint64_t>(probs[i] * 4294967296.0);
    for (std::size_t b = 0; b < ps.num_blocks_; ++b) {
      std::uint64_t w = 0;
      for (int bit = 0; bit < 64; ++bit) {
        const std::uint64_t draw = rng() >> 32;
        if (draw < threshold) w |= std::uint64_t{1} << bit;
      }
      ps.set_word(i, b, w);
    }
  }
  return ps;
}

PatternSet PatternSet::exhaustive(std::size_t num_inputs) {
  if (num_inputs > 24)
    throw std::invalid_argument("PatternSet::exhaustive: > 24 inputs");
  const std::size_t n = std::size_t{1} << num_inputs;
  PatternSet ps(num_inputs, n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t i = 0; i < num_inputs; ++i)
      if ((p >> i) & 1u) ps.set(p, i, true);
  return ps;
}

}  // namespace protest
