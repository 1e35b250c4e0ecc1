// The polymorphic SignalProbEngine layer: registry round-trips, uniform
// input validation, cross-engine parity on fanout-reconvergence-free
// circuits (where independence propagation is provably exact, so every
// point-estimate engine must agree with the exact oracles), and the
// perturb / screen contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "netlist/builder.hpp"
#include "prob/engine.hpp"
#include "prob/naive.hpp"
#include "protest/session.hpp"
#include "validate/stats.hpp"

namespace protest {
namespace {

/// Seeded random tree circuit: every node feeds exactly one consumer, so
/// the result is fanout-reconvergence-free by construction.
Netlist make_random_tree(std::uint64_t seed, std::size_t num_leaves = 12) {
  NetlistBuilder bld;
  std::mt19937_64 rng(seed);
  std::vector<NodeId> pool;
  for (std::size_t i = 0; i < num_leaves; ++i)
    pool.push_back(bld.input("i" + std::to_string(i)));
  const GateType kinds[] = {GateType::And,  GateType::Nand, GateType::Or,
                            GateType::Nor,  GateType::Xor,  GateType::Xnor,
                            GateType::Not,  GateType::Buf};
  while (pool.size() > 1) {
    std::uniform_int_distribution<std::size_t> pick_kind(0, 7);
    const GateType t = kinds[pick_kind(rng)];
    const std::size_t arity =
        (t == GateType::Not || t == GateType::Buf)
            ? 1
            : std::min<std::size_t>(
                  pool.size(),
                  std::uniform_int_distribution<std::size_t>(2, 3)(rng));
    std::vector<NodeId> fanin;
    for (std::size_t i = 0; i < arity; ++i) {
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      const std::size_t j = pick(rng);
      fanin.push_back(pool[j]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
    }
    pool.push_back(bld.gate(t, std::move(fanin)));
  }
  bld.output(pool[0], "y");
  return bld.build();
}

InputProbs random_tuple(const Netlist& net, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.05, 0.95);
  InputProbs ip(net.inputs().size());
  for (double& p : ip) p = uni(rng);
  return ip;
}

TEST(EngineRegistry, RoundTripsEveryAdvertisedName) {
  const Netlist net = make_c17();
  const auto names = engine_names();
  // >= because the process-wide registry may have picked up extra engines
  // (CustomEnginesPlugIn runs in this binary); the five builtins are
  // checked by name below.
  EXPECT_GE(names.size(), 5u);
  for (const std::string& name : names) {
    const auto engine = make_engine(name, net);
    ASSERT_NE(engine, nullptr) << name;
    const auto p = engine->signal_probs(uniform_input_probs(net, 0.5));
    EXPECT_EQ(p.size(), net.size()) << name;
  }
  // name() round-trips for the builtins; custom registrations may wrap a
  // builtin engine and legitimately keep its name.
  for (const char* name :
       {"exact-bdd", "exact-enum", "monte-carlo", "naive", "protest"})
    EXPECT_EQ(make_engine(name, net)->name(), name);
}

TEST(EngineRegistry, AdvertisesTheFiveBuiltins) {
  const auto names = engine_names();
  for (const char* expected :
       {"exact-bdd", "exact-enum", "monte-carlo", "naive", "protest"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
}

TEST(EngineRegistry, ThrowsOnUnknownName) {
  const Netlist net = make_c17();
  EXPECT_THROW(make_engine("no-such-engine", net), std::invalid_argument);
  try {
    make_engine("no-such-engine", net);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must list the registered engines.
    EXPECT_NE(std::string(e.what()).find("protest"), std::string::npos);
  }
}

TEST(EngineRegistry, CustomEnginesPlugIn) {
  register_engine("custom-naive",
                  [](const Netlist& net, const EngineConfig&) {
                    return std::make_unique<NaiveEngine>(net);
                  });
  const Netlist net = make_c17();
  const auto engine = make_engine("custom-naive", net);
  EXPECT_EQ(engine->name(), "naive");  // wrapper keeps its own name
  const auto names = engine_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "custom-naive"),
            names.end());
}

TEST(EngineRegistry, ConfigReachesTheEngines) {
  const Netlist net = make_c17();
  EngineConfig cfg;
  cfg.protest.maxvers = 2;
  cfg.monte_carlo.num_patterns = 64;
  const auto prot = make_engine("protest", net, cfg);
  EXPECT_EQ(dynamic_cast<const ProtestEngine&>(*prot).params().maxvers, 2u);
  const auto mc = make_engine("monte-carlo", net, cfg);
  EXPECT_EQ(dynamic_cast<const MonteCarloEngine&>(*mc).params().num_patterns,
            64u);
}

TEST(EngineValidation, UniformAcrossEngines) {
  const Netlist net = make_c17();
  const double too_few[] = {0.5};
  std::vector<double> out_of_range(net.inputs().size(), 0.5);
  out_of_range[2] = 1.5;
  for (const std::string& name : engine_names()) {
    const auto engine = make_engine(name, net);
    EXPECT_THROW(engine->signal_probs(too_few), std::invalid_argument) << name;
    EXPECT_THROW(engine->signal_probs(out_of_range), std::invalid_argument)
        << name;
  }
}

TEST(EngineValidation, RejectsUnfinalizedNetlist) {
  Netlist net;
  net.add_input("a");
  EXPECT_THROW(NaiveEngine{net}, std::invalid_argument);
  try {
    const MonteCarloEngine engine(net);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("finalized"), std::string::npos);
  }
}

// On fanout-reconvergence-free circuits every point-estimate engine is
// exact, so naive == exact-bdd == exact-enum == protest (within 1e-9) and
// Monte-Carlo lands within the Hoeffding tolerance derived from an
// aggregate 1e-6 false-positive budget split across the six seeds and
// each circuit's per-node comparisons (validate/stats.hpp).
class EngineParity : public ::testing::TestWithParam<int> {};

TEST_P(EngineParity, AgreeOnReconvergenceFreeCircuits) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Netlist net = make_random_tree(seed);
  ASSERT_TRUE(is_fanout_reconvergence_free(net));
  const InputProbs ip = random_tuple(net, seed * 977 + 1);

  EngineConfig cfg;
  cfg.monte_carlo.num_patterns = 200'000;
  cfg.monte_carlo.seed = seed + 42;
  const auto exact = make_engine("exact-bdd", net, cfg)->signal_probs(ip);
  for (const std::string name : {"naive", "exact-enum", "protest"}) {
    const auto p = make_engine(name, net, cfg)->signal_probs(ip);
    ASSERT_EQ(p.size(), exact.size());
    for (NodeId n = 0; n < net.size(); ++n)
      EXPECT_NEAR(p[n], exact[n], 1e-9) << name << " node " << n;
  }
  const auto mc = make_engine("monte-carlo", net, cfg)->signal_probs(ip);
  const double tol = mc_tolerance(cfg.monte_carlo.num_patterns, net.size(),
                                  net.inputs().size(), 1e-6 / 6);
  for (NodeId n = 0; n < net.size(); ++n)
    EXPECT_NEAR(mc[n], exact[n], tol) << "node " << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineParity, ::testing::Range(1, 7));

TEST(EngineBatch, SessionAnalyzeBatchMatchesPerTupleAnalyze) {
  // The session's batched analysis runs analyze() per tuple, so every
  // result must equal a fresh session's per-tuple analyze() bit for bit,
  // for the PROTEST engine as for any other.
  const Netlist net = make_c17();
  const std::vector<InputProbs> batch = {uniform_input_probs(net, 0.5),
                                         uniform_input_probs(net, 0.3),
                                         uniform_input_probs(net, 0.8)};
  for (const char* name : {"naive", "protest"}) {
    SessionOptions o;
    o.engine = name;
    AnalysisSession batched(net, o);
    AnalysisSession single(net, o);
    const std::vector<AnalysisResult> results = batched.analyze_batch(batch);
    ASSERT_EQ(results.size(), batch.size()) << name;
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const AnalysisResult want = single.analyze(batch[t]);
      EXPECT_EQ(results[t].engine(), name);
      EXPECT_EQ(results[t].input_probs(), batch[t]);
      EXPECT_EQ(results[t].signal_probs(), want.signal_probs())
          << name << " tuple " << t;
      EXPECT_EQ(results[t].detection_probs(), want.detection_probs())
          << name << " tuple " << t;
    }
  }
}

TEST(EnginePerturb, ExactModeMatchesSingleCallOnEveryEngine) {
  // The perturb contract: an exact perturb is bit-for-bit the single call
  // on the perturbed tuple, conditioning sets included — incremental
  // engines via fanout-cone re-evaluation, the rest via deterministic full
  // recomputation.  c17 and alu have reconvergent fanout, so the PROTEST
  // conditioning is exercised.
  EngineConfig cfg;
  cfg.monte_carlo.num_patterns = 4096;
  for (const char* circuit : {"c17", "alu"}) {
    const Netlist net = make_circuit(circuit);
    const InputProbs base = random_tuple(net, 5);
    for (const std::string& name : engine_names()) {
      if (name == "exact-enum" && net.inputs().size() > 24) continue;
      const auto engine = make_engine(name, net, cfg);
      const Evaluation base_eval = engine->evaluate(base);
      for (std::size_t idx : {std::size_t{0}, std::size_t{4}}) {
        InputProbs perturbed = base;
        perturbed[idx] = 0.125;
        const Evaluation got = engine->perturb(base, base_eval, idx, 0.125);
        const Evaluation want = engine->evaluate(perturbed);
        EXPECT_EQ(got.probs, want.probs) << circuit << " " << name << " input "
                                         << idx;
        ASSERT_EQ(got.selection == nullptr, want.selection == nullptr)
            << circuit << " " << name;
        if (want.selection) {
          EXPECT_EQ(*got.selection, *want.selection)
              << circuit << " " << name << " input " << idx;
        }
      }
      // Only the PROTEST engine selects anything per tuple.
      EXPECT_EQ(base_eval.selection != nullptr, name == "protest") << name;
    }
  }
}

TEST(EnginePerturb, ValidatesArguments) {
  const Netlist net = make_c17();
  const auto engine = make_engine("protest", net);
  const InputProbs base = uniform_input_probs(net, 0.5);
  const Evaluation eval = engine->evaluate(base);
  EXPECT_THROW(engine->perturb(base, eval, 99, 0.5), std::invalid_argument);
  EXPECT_THROW(engine->perturb(base, eval, 0, -0.1), std::invalid_argument);
  EXPECT_THROW(engine->screen(base, eval, 99, 0.5), std::invalid_argument);
  const Evaluation short_probs{std::vector<double>(3, 0.5), eval.selection};
  EXPECT_THROW(engine->perturb(base, short_probs, 0, 0.5),
               std::invalid_argument);
  // The PROTEST engine needs the base's conditioning sets: without them,
  // or with another estimator's, there is nothing to condition on.
  const Evaluation bare{eval.probs, nullptr};
  EXPECT_THROW(engine->perturb(base, bare, 0, 0.25), std::invalid_argument);
  EXPECT_THROW(engine->screen(base, bare, 0, 0.25), std::invalid_argument);
  const Netlist alu = make_circuit("alu");
  const Evaluation foreign{eval.probs,
                           make_engine("protest", alu)
                               ->evaluate(uniform_input_probs(alu, 0.5))
                               .selection};
  EXPECT_THROW(engine->screen(base, foreign, 0, 0.25), std::invalid_argument);
}

TEST(EnginePerturb, ScreenMatchesEvaluationUnderBaseSelection) {
  // A screen conditions on the sets the base evaluation selected: bit for
  // bit a full evaluation of the perturbed tuple under those sets — also
  // when other tuples were evaluated between the base and the screen, and
  // when exact perturbs of the base ran in between.
  for (const char* circuit : {"c17", "alu"}) {
    const Netlist net = make_circuit(circuit);
    const ProtestEngine engine(net);
    const InputProbs base = random_tuple(net, 17);
    const Evaluation base_eval = engine.evaluate(base);
    InputProbs perturbed = base;
    perturbed[1] = 0.8125;
    const std::vector<double> want =
        engine.estimator().evaluate_under(perturbed, *base_eval.selection);

    engine.evaluate(uniform_input_probs(net, 0.3));
    EXPECT_EQ(engine.screen(base, base_eval, 1, 0.8125), want)
        << circuit << ": screen after another tuple";

    for (std::size_t i = 0; i < net.inputs().size(); i += 2)
      engine.perturb(base, base_eval, i, 0.0625);
    EXPECT_EQ(engine.screen(base, base_eval, 1, 0.8125), want)
        << circuit << ": screen after exact perturbs";
  }
}

}  // namespace
}  // namespace protest
