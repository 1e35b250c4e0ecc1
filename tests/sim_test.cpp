// Pattern storage, 64-way parallel logic simulation, and the multi-word
// compiled-core parity suite (WordSimulator at every width ==
// simulate_single, the Gate-struct reference, bit for bit).
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <stdexcept>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "netlist/builder.hpp"
#include "prob/monte_carlo.hpp"
#include "sim/logic_sim.hpp"
#include "sim/pattern.hpp"
#include "sim/word_sim.hpp"

namespace protest {
namespace {

TEST(PatternSet, GetSetRoundTrip) {
  PatternSet ps(3, 130);
  EXPECT_EQ(ps.num_blocks(), 3u);
  ps.set(0, 0, true);
  ps.set(64, 1, true);
  ps.set(129, 2, true);
  EXPECT_TRUE(ps.get(0, 0));
  EXPECT_FALSE(ps.get(1, 0));
  EXPECT_TRUE(ps.get(64, 1));
  EXPECT_TRUE(ps.get(129, 2));
  ps.set(129, 2, false);
  EXPECT_FALSE(ps.get(129, 2));
}

TEST(PatternSet, ValidMask) {
  PatternSet ps(1, 70);
  EXPECT_EQ(ps.valid_mask(0), ~std::uint64_t{0});
  EXPECT_EQ(std::popcount(ps.valid_mask(1)), 6);
  PatternSet full(1, 128);
  EXPECT_EQ(full.valid_mask(1), ~std::uint64_t{0});
}

TEST(PatternSet, RandomIsRoughlyBalanced) {
  const PatternSet ps = PatternSet::random(4, 10'000, 7);
  for (std::size_t i = 0; i < 4; ++i) {
    std::size_t ones = 0;
    for (std::size_t p = 0; p < ps.num_patterns(); ++p) ones += ps.get(p, i);
    EXPECT_NEAR(static_cast<double>(ones) / 10'000, 0.5, 0.03);
  }
}

TEST(PatternSet, WeightedMatchesProbabilities) {
  const double probs[] = {0.1, 0.5, 0.9375};
  const PatternSet ps = PatternSet::weighted(probs, 20'000, 11);
  for (std::size_t i = 0; i < 3; ++i) {
    std::size_t ones = 0;
    for (std::size_t p = 0; p < ps.num_patterns(); ++p) ones += ps.get(p, i);
    EXPECT_NEAR(static_cast<double>(ones) / 20'000, probs[i], 0.02) << i;
  }
}

TEST(PatternSet, WeightedIsDeterministicPerSeed) {
  const double probs[] = {0.25, 0.75};
  const PatternSet a = PatternSet::weighted(probs, 100, 3);
  const PatternSet b = PatternSet::weighted(probs, 100, 3);
  const PatternSet c = PatternSet::weighted(probs, 100, 4);
  bool all_same_ab = true, all_same_ac = true;
  for (std::size_t p = 0; p < 100; ++p)
    for (std::size_t i = 0; i < 2; ++i) {
      all_same_ab &= a.get(p, i) == b.get(p, i);
      all_same_ac &= a.get(p, i) == c.get(p, i);
    }
  EXPECT_TRUE(all_same_ab);
  EXPECT_FALSE(all_same_ac);
}

TEST(PatternSet, ExhaustiveCountsInOrder) {
  const PatternSet ps = PatternSet::exhaustive(3);
  ASSERT_EQ(ps.num_patterns(), 8u);
  for (std::size_t p = 0; p < 8; ++p)
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(ps.get(p, i), bool((p >> i) & 1));
}

TEST(PatternSet, OversizedSetsThrowInsteadOfWrapping) {
  // 2^63 patterns are 2^57 blocks; x 128 inputs the word count wraps to 0
  // in 64 bits, which used to build an empty set that weighted() then
  // wrote past.
  const std::size_t two_63 = std::size_t{1} << 63;
  EXPECT_THROW(PatternSet(128, two_63), std::length_error);
  const std::vector<double> probs(128, 0.5);
  EXPECT_THROW(PatternSet::weighted(probs, two_63, 1), std::length_error);
  // SIZE_MAX patterns used to round up to 0 blocks.
  const std::size_t most = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(PatternSet(5, most), std::length_error);
  EXPECT_THROW(PatternSet(128, most), std::length_error);
  // The last pattern count below a block boundary still rounds up.
  EXPECT_EQ(PatternSet(1, 65).num_blocks(), 2u);
}

TEST(PatternSet, Validation) {
  EXPECT_THROW(PatternSet(2, 0), std::invalid_argument);
  EXPECT_THROW(PatternSet::exhaustive(30), std::invalid_argument);
  const double bad[] = {1.5};
  EXPECT_THROW(PatternSet::weighted(bad, 8, 1), std::invalid_argument);
}

TEST(LogicSim, C17TruthSpotChecks) {
  // c17: 22 = NAND(NAND(1,3), NAND(2, NAND(3,6)));
  //      23 = NAND(NAND(2,NAND(3,6)), NAND(NAND(3,6), 7)).
  const Netlist net = make_c17();
  auto eval = [&](bool i1, bool i2, bool i3, bool i6, bool i7) {
    const auto v = simulate_single(net, {i1, i2, i3, i6, i7});
    return std::pair{v[net.find("22")], v[net.find("23")]};
  };
  auto ref = [](bool i1, bool i2, bool i3, bool i6, bool i7) {
    const bool n10 = !(i1 && i3);
    const bool n11 = !(i3 && i6);
    const bool n16 = !(i2 && n11);
    const bool n19 = !(n11 && i7);
    return std::pair{!(n10 && n16), !(n16 && n19)};
  };
  for (unsigned m = 0; m < 32; ++m) {
    const bool i1 = m & 1, i2 = m & 2, i3 = m & 4, i6 = m & 8, i7 = m & 16;
    EXPECT_EQ(eval(i1, i2, i3, i6, i7), ref(i1, i2, i3, i6, i7)) << m;
  }
}

TEST(LogicSim, CountOnesMatchesManualCount) {
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId b = bld.input("b");
  bld.output(bld.and2(a, b), "y");
  const Netlist net = bld.build();
  const PatternSet ps = PatternSet::exhaustive(2);
  const auto ones = count_ones(net, ps);
  EXPECT_EQ(ones[net.find("y")], 1u);  // AND true on exactly 1 of 4
  EXPECT_EQ(ones[net.find("a")], 2u);
}

TEST(LogicSim, ConstantsEvaluate) {
  NetlistBuilder bld;
  const NodeId a = bld.input("a");
  const NodeId c1 = bld.constant(true);
  const NodeId c0 = bld.constant(false);
  bld.output(bld.and2(a, c1), "y1");
  bld.output(bld.or2(a, c0), "y0");
  const Netlist net = bld.build();
  const auto v = simulate_single(net, {true});
  EXPECT_TRUE(v[net.find("y1")]);
  EXPECT_TRUE(v[net.find("y0")]);
}

TEST(LogicSim, SimulateSingleRejectsArityMismatch) {
  const Netlist net = make_c17();
  EXPECT_THROW(simulate_single(net, {true, false, true}), std::invalid_argument);
  EXPECT_THROW(simulate_single(net, std::vector<bool>(6)),
               std::invalid_argument);
}

// --- compiled-core parity suite ---------------------------------------------

std::vector<bool> pattern_inputs(const PatternSet& ps, std::size_t p) {
  std::vector<bool> in(ps.num_inputs());
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = ps.get(p, i);
  return in;
}

/// Every node value of WordSimulator, at every width, must agree with the
/// simulate_single reference on every valid pattern — exact, not
/// approximate.
void expect_full_parity(const Netlist& net, const PatternSet& ps) {
  std::vector<std::vector<bool>> ref(ps.num_patterns());
  for (std::size_t p = 0; p < ps.num_patterns(); ++p)
    ref[p] = simulate_single(net, pattern_inputs(ps, p));
  // 5 exercises the runtime-width fallback; the rest hit specializations.
  for (const std::size_t w :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{5},
        std::size_t{8}, std::size_t{16}}) {
    WordSimulator sim(net, w);
    ASSERT_EQ(sim.patterns_per_pass(), w * 64);
    for (std::size_t b = 0; b < ps.num_blocks(); b += w) {
      const std::size_t count = std::min(w, ps.num_blocks() - b);
      sim.run_blocks(ps, b, count);
      const std::size_t end = std::min((b + count) * 64, ps.num_patterns());
      for (std::size_t p = b * 64; p < end; ++p)
        for (NodeId n = 0; n < net.size(); ++n)
          ASSERT_EQ(bool((sim.word(n, p / 64 - b) >> (p % 64)) & 1), ref[p][n])
              << "W=" << w << " pattern=" << p << " node=" << n;
    }
  }
}

TEST(WordSim, ParityAcrossRandomCircuits) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const unsigned fanin : {2u, 5u}) {
      for (const double xor_frac : {0.0, 0.5}) {
        RandomCircuitParams p;
        p.num_inputs = 12;
        p.num_gates = 300;
        p.max_fanin = fanin;
        p.xor_fraction = xor_frac;
        p.seed = seed;
        const Netlist net = make_random_circuit(p);
        // 200 patterns: full blocks plus a partial tail block.
        expect_full_parity(net, PatternSet::random(12, 200, seed * 31 + 7));
      }
    }
  }
}

TEST(WordSim, ParityOnC17AndAlu) {
  const Netlist c17 = make_c17();
  expect_full_parity(c17, PatternSet::exhaustive(5));
  const Netlist alu = make_circuit("alu");
  expect_full_parity(alu,
                     PatternSet::random(alu.inputs().size(), 130, 2024));
}

TEST(WordSim, MatchesSimulateSingle) {
  const Netlist net = make_random_circuit(stress_circuit_params(500, 9));
  const std::size_t ni = net.inputs().size();
  const PatternSet ps = PatternSet::random(ni, 128, 5);
  WordSimulator sim(net, 2);
  sim.run_blocks(ps, 0, 2);
  for (const std::size_t p : {std::size_t{0}, std::size_t{63},
                              std::size_t{64}, std::size_t{127}}) {
    const auto single = simulate_single(net, pattern_inputs(ps, p));
    for (NodeId n = 0; n < net.size(); ++n)
      ASSERT_EQ(bool((sim.word(n, p / 64) >> (p % 64)) & 1), single[n])
          << "p=" << p << " n=" << n;
  }
}

TEST(WordSim, CountOnesMatchesSimulateSingle) {
  const Netlist net = make_random_circuit(stress_circuit_params(400, 4));
  // 330 patterns: the word path sees a partial group AND a partial block.
  const PatternSet ps = PatternSet::random(net.inputs().size(), 330, 12);
  std::vector<std::size_t> ref(net.size(), 0);
  for (std::size_t p = 0; p < ps.num_patterns(); ++p) {
    const auto single = simulate_single(net, pattern_inputs(ps, p));
    for (NodeId n = 0; n < net.size(); ++n) ref[n] += single[n];
  }
  EXPECT_EQ(count_ones(net, ps), ref);
}

/// One-counts of the Monte-Carlo stream contract (prob/monte_carlo.hpp)
/// derived independently of the shard loop: each pattern is re-drawn by
/// the documented rule and evaluated on the simulate_single reference.
std::vector<std::size_t> stream_contract_ones(
    const Netlist& net, std::span<const std::uint64_t> thresholds,
    std::size_t num_patterns, std::uint64_t seed) {
  const auto splitmix64_next = [](std::uint64_t& state) {
    std::uint64_t z = state += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<std::size_t> ones(net.size(), 0);
  std::vector<std::uint64_t> words(thresholds.size());
  std::vector<bool> in(thresholds.size());
  for (std::size_t s = 0; s < monte_carlo_num_shards(num_patterns); ++s) {
    std::uint64_t state = monte_carlo_stream_seed(seed, s);
    for (std::size_t p = s * kMonteCarloShardPatterns;
         p < std::min((s + 1) * kMonteCarloShardPatterns, num_patterns); ++p) {
      if (p % 64 == 0)
        for (std::size_t i = 0; i < words.size(); ++i) {
          words[i] = 0;
          for (int bit = 0; bit < 64; ++bit)
            if ((splitmix64_next(state) >> 32) < thresholds[i])
              words[i] |= std::uint64_t{1} << bit;
        }
      for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = (words[i] >> (p % 64)) & 1;
      const auto single = simulate_single(net, in);
      for (NodeId n = 0; n < net.size(); ++n) ones[n] += single[n];
    }
  }
  return ones;
}

TEST(WordSim, MonteCarloWordPathIsBitIdentical) {
  const Netlist net = make_random_circuit(stress_circuit_params(400, 2));
  std::vector<double> probs(net.inputs().size());
  for (std::size_t i = 0; i < probs.size(); ++i)
    probs[i] = 0.1 + 0.8 * static_cast<double>(i) / probs.size();
  const auto thresholds = monte_carlo_thresholds(probs);
  const std::size_t num_patterns = 10'000;  // 2 shards, last one partial
  const std::uint64_t seed = 77;
  const auto shard_ones = [&](std::size_t w) {
    WordSimulator sim(net, w);
    std::vector<std::size_t> ones(net.size(), 0);
    for (std::size_t s = 0; s < monte_carlo_num_shards(num_patterns); ++s)
      monte_carlo_accumulate_shard(sim, thresholds, s, num_patterns, seed,
                                   ones);
    return ones;
  };

  const std::vector<std::size_t> ref = shard_ones(1);
  EXPECT_EQ(ref, stream_contract_ones(net, thresholds, num_patterns, seed));
  for (const std::size_t w : {std::size_t{4}, std::size_t{8}, std::size_t{13}})
    EXPECT_EQ(shard_ones(w), ref) << "W=" << w;
}

TEST(WordSim, Validation) {
  const Netlist net = make_c17();
  EXPECT_THROW(WordSimulator(net, 0), std::invalid_argument);
  EXPECT_THROW(WordSimulator(net, 65), std::invalid_argument);
  WordSimulator sim(net, 4);
  const PatternSet wrong = PatternSet::random(3, 64, 1);
  EXPECT_THROW(sim.run_blocks(wrong, 0, 1), std::invalid_argument);
  const PatternSet ok = PatternSet::random(5, 256, 1);
  EXPECT_THROW(sim.run_blocks(ok, 0, 5), std::invalid_argument);  // count > W
  EXPECT_THROW(sim.run_blocks(ok, 3, 4), std::invalid_argument);  // past end
}

}  // namespace
}  // namespace protest
