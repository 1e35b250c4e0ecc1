// The static fault analyzer: implication-engine learning, per-fault
// classification on hand-built redundant circuits, interval soundness
// against the exact BDD miter oracle, the pruned/bounded consumers
// (detection_probs_bounded, simulate_faults_pruned), golden bit patterns,
// and the shared-context path: field-for-field equal to the one-shot for
// every worker count and tuple history, and race-free beside other work on
// one executor.  This suite runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "lint/fault_analyze.hpp"
#include "lint/implication.hpp"
#include "netlist/bench_io.hpp"
#include "observe/detect.hpp"
#include "observe/miter.hpp"
#include "observe/observability.hpp"
#include "prob/protest_estimator.hpp"
#include "prob/signal_prob.hpp"
#include "protest/service.hpp"
#include "protest/session.hpp"
#include "sim/fault_sim.hpp"
#include "sim/word_sim.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

Netlist random_net(std::uint64_t seed, std::size_t inputs, std::size_t gates) {
  RandomCircuitParams p;
  p.num_inputs = inputs;
  p.num_gates = gates;
  p.seed = seed;
  return make_random_circuit(p);
}

// --- implication engine -----------------------------------------------------

TEST(Implication, LearnsXorOfSameSignalIsZero) {
  // The forward lattice cannot see XOR(a, a) = 0; one level of recursive
  // learning (split on a) proves it.
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
      "t = XOR(a, a)\n"
      "y = OR(t, b)\n");
  ImplicationStats stats;
  const std::vector<signed char> learned =
      learn_constants(net, ImplicationOptions{}, &stats);
  NodeId t = kNoNode;
  for (NodeId n = 0; n < net.size(); ++n)
    if (net.name_of(n) == "t") t = n;
  ASSERT_NE(t, kNoNode);
  EXPECT_EQ(learned[t], 0);
  EXPECT_GT(stats.conflicts, 0u);
}

TEST(Implication, ForwardLatticeConstantsAreAlsoLearned) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\nc = CONST1()\ny = AND(a, c)\n");
  const std::vector<signed char> learned = learn_constants(net);
  for (NodeId n = 0; n < net.size(); ++n) {
    if (net.gate(n).type == GateType::Const1) {
      EXPECT_EQ(learned[n], 1);
    }
  }
}

TEST(Implication, LearnedConstantsAgreeWithExhaustiveTruth) {
  // Soundness: every learned constant must hold on EVERY input vector.
  // (The 74181 ALU model genuinely contains four const-1 nodes, which the
  // engine finds; c17 is irredundant and must learn nothing.)
  for (const char* name : {"c17", "alu"}) {
    const Netlist net = make_circuit(name);
    const std::vector<signed char> learned = learn_constants(net);
    const std::size_t ni = net.inputs().size();
    ASSERT_LE(ni, 16u);
    WordSimulator sim(net, 1);
    std::vector<std::uint64_t> ones(net.size(), 0), zeros(net.size(), 0);
    for (std::uint64_t base = 0; base < (1ull << ni); base += 64) {
      for (std::size_t i = 0; i < ni; ++i) {
        std::uint64_t w = 0;
        for (int b = 0; b < 64; ++b) w |= (((base + b) >> i) & 1ull) << b;
        sim.input_words(i)[0] = w;
      }
      sim.run();
      for (NodeId n = 0; n < net.size(); ++n) {
        ones[n] |= sim.node_words(n)[0];
        zeros[n] |= ~sim.node_words(n)[0];
      }
    }
    for (NodeId n = 0; n < net.size(); ++n) {
      if (learned[n] < 0) continue;
      if (learned[n] == 1)
        EXPECT_EQ(zeros[n], 0u) << name << " node " << n;
      else
        EXPECT_EQ(ones[n], 0u) << name << " node " << n;
    }
    if (std::string(name) == "c17") {
      for (NodeId n = 0; n < net.size(); ++n)
        EXPECT_EQ(learned[n], -1) << "c17 node " << n;
    }
  }
}

// --- classification ---------------------------------------------------------

const FaultBound& bound_for(const Netlist& net,
                            const std::vector<Fault>& faults,
                            const FaultAnalysis& fa, std::string_view name,
                            StuckAt sa) {
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (faults[i].is_stem() && net.name_of(faults[i].node) == name &&
        faults[i].sa == sa)
      return fa.bounds[i];
  throw std::logic_error("fault not in collapsed list");
}

TEST(FaultAnalyze, LearnedConstantMakesStuckAtItUnexcitable) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
      "t = XOR(a, a)\n"
      "y = OR(t, b)\n");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  // t is provably 0: s-a-0 at t can never be excited...
  const FaultBound& sa0 = bound_for(net, faults, fa, "t", StuckAt::Zero);
  EXPECT_EQ(sa0.verdict, FaultClass::ProvenUndetectable);
  EXPECT_EQ(sa0.cause, UndetectableCause::Unexcitable);
  EXPECT_EQ(sa0.hi, 0.0);
  // ...while the s-a-1 class (t s-a-1 ~ y s-a-1, collapsed onto the
  // b stem) forces y to 1 and shows exactly when b = 0: p = 1/2.
  const FaultBound& sa1 = bound_for(net, faults, fa, "b", StuckAt::One);
  EXPECT_EQ(sa1.verdict, FaultClass::ProvenDetectable);
  EXPECT_DOUBLE_EQ(sa1.lo, 0.5);
  EXPECT_DOUBLE_EQ(sa1.hi, 0.5);
  EXPECT_GT(fa.undetectable, 0u);
  EXPECT_GT(fa.learned_constants, 0u);
}

TEST(FaultAnalyze, FanoutFreeFaultsAreProvenDetectableWithExactBounds) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
      "u = AND(a, b)\n"
      "y = OR(u, c)\n");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  EXPECT_EQ(fa.undetectable, 0u);
  // a s-a-0 (the representative of the collapsed u-s-a-0 class): excite
  // P(a=1) = 1/2, then sensitize b = 1 and c = 0 — all independent on a
  // fanout-free tree, so the interval must collapse on exactly 1/8.
  const FaultBound& b = bound_for(net, faults, fa, "a", StuckAt::Zero);
  EXPECT_EQ(b.verdict, FaultClass::ProvenDetectable);
  EXPECT_DOUBLE_EQ(b.lo, 0.125);
  EXPECT_DOUBLE_EQ(b.hi, 0.125);
}

TEST(FaultAnalyze, EveryFaultGetsAVerdictAndCountsAddUp) {
  for (const char* name : {"c17", "alu", "mult"}) {
    const Netlist net = make_circuit(name);
    const std::vector<Fault> faults = collapsed_fault_list(net);
    const FaultAnalysis fa = analyze_faults(net, faults);
    ASSERT_EQ(fa.bounds.size(), faults.size());
    EXPECT_EQ(fa.undetectable, fa.unexcitable + fa.unobservable);
    EXPECT_EQ(fa.undetectable + fa.detectable + fa.uncertain, faults.size());
    for (const FaultBound& b : fa.bounds) {
      EXPECT_LE(b.lo, b.hi);
      EXPECT_GE(b.lo, 0.0);
      EXPECT_LE(b.hi, 1.0);
      if (b.verdict == FaultClass::ProvenUndetectable) {
        EXPECT_EQ(b.hi, 0.0);
        EXPECT_NE(b.cause, UndetectableCause::None);
      }
      if (b.verdict == FaultClass::ProvenDetectable) {
        EXPECT_GT(b.lo, 0.0);
      }
    }
  }
}

// --- soundness against the exact miter oracle -------------------------------

TEST(FaultAnalyze, IntervalsContainExactDetectionProbability) {
  // The BDD miter computes the TRUE detection probability; every static
  // interval must contain it (modulo float dust), across biased tuples.
  for (int seed = 101; seed < 105; ++seed) {
    const Netlist net = random_net(static_cast<std::uint64_t>(seed), 7, 45);
    const std::vector<Fault> faults = collapsed_fault_list(net);
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 6151);
    std::uniform_real_distribution<double> uni(0.1, 0.9);
    FaultAnalyzeOptions fo;
    fo.input_probs.resize(net.inputs().size());
    for (double& p : fo.input_probs) p = uni(rng);
    const FaultAnalysis fa = analyze_faults(net, faults, fo);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const double exact =
          exact_detection_prob_bdd(net, faults[i], fo.input_probs);
      EXPECT_GE(exact, fa.bounds[i].lo - 1e-9)
          << "seed " << seed << " fault " << to_string(net, faults[i]);
      EXPECT_LE(exact, fa.bounds[i].hi + 1e-9)
          << "seed " << seed << " fault " << to_string(net, faults[i]);
    }
  }
}

TEST(FaultAnalyze, BundledCorpusSettlesAndStaysSound) {
  const char* data = std::getenv("PROTEST_DATA");
  ASSERT_NE(data, nullptr) << "PROTEST_DATA not set (see CMakeLists.txt)";
  const Netlist net = read_bench_file(std::string(data) + "/c17.bench");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  // c17 is irredundant: no fault is provably undetectable, and on a
  // circuit this small many faults settle as proven detectable.
  EXPECT_EQ(fa.undetectable, 0u);
  EXPECT_GT(fa.detectable, 0u);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const double exact = exact_detection_prob_bdd(net, faults[i], ip);
    EXPECT_GE(exact, fa.bounds[i].lo - 1e-9) << to_string(net, faults[i]);
    EXPECT_LE(exact, fa.bounds[i].hi + 1e-9) << to_string(net, faults[i]);
  }
}

// --- golden bit patterns ----------------------------------------------------

// FNV-1a over the IEEE bit patterns of every bound, its verdict, cause and
// truncation flag, then the census.  The pinned values were recorded from
// the heap-driven single-threaded kernel; any rework of the sweep must
// reproduce them bit for bit.  Like ProtestEstimator.GoldenBitPatterns,
// they assume IEEE doubles without fused multiply-add contraction.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t analysis_hash(const FaultAnalysis& fa) {
  Fnv1a h;
  h.add(fa.bounds.size());
  for (const FaultBound& b : fa.bounds) {
    h.add(std::bit_cast<std::uint64_t>(b.lo));
    h.add(std::bit_cast<std::uint64_t>(b.hi));
    h.add(static_cast<std::uint64_t>(b.verdict));
    h.add(static_cast<std::uint64_t>(b.cause));
    h.add(b.truncated ? 1u : 0u);
  }
  for (const std::size_t v :
       {fa.undetectable, fa.unexcitable, fa.unobservable, fa.detectable,
        fa.uncertain, fa.truncated_sweeps, fa.frechet_widened,
        fa.learned_constants})
    h.add(v);
  return h.value();
}

/// A 1/16-grid tuple in (0, 1): exact in binary.
InputProbs grid_tuple(const Netlist& net) {
  InputProbs ip(net.inputs().size());
  for (std::size_t i = 0; i < ip.size(); ++i)
    ip[i] = 0.0625 * static_cast<double>(1 + (i * 7) % 15);
  return ip;
}

TEST(FaultAnalyze, GoldenBitPatterns) {
  struct Case {
    const char* circuit;
    bool grid;
    std::size_t max_cone_nodes;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"alu", false, 2048, 11669972621537485507u},
      {"mult", false, 2048, 12776764772172904911u},
      {"div", false, 2048, 3236161209154449963u},
      {"div", true, 2048, 8913449097150603611u},
      {"div", false, 256, 74611312201316223u},
  };
  for (const Case& c : cases) {
    const Netlist net = make_circuit(c.circuit);
    FaultAnalyzeOptions fo;
    fo.max_cone_nodes = c.max_cone_nodes;
    if (c.grid) fo.input_probs = grid_tuple(net);
    const std::vector<Fault> faults = structural_fault_list(net);
    EXPECT_EQ(analysis_hash(analyze_faults(net, faults, fo)), c.hash)
        << c.circuit << (c.grid ? " grid tuple" : " p=0.5")
        << " max_cone_nodes " << c.max_cone_nodes;
  }
}

// --- the shared context -----------------------------------------------------

void expect_same_analysis(const FaultAnalysis& got, const FaultAnalysis& want,
                          const std::string& where) {
  ASSERT_EQ(got.bounds.size(), want.bounds.size()) << where;
  for (std::size_t i = 0; i < want.bounds.size(); ++i)
    ASSERT_TRUE(got.bounds[i] == want.bounds[i])
        << where << ": fault " << i << " differs";
  EXPECT_TRUE(got == want) << where << ": the census differs";
}

TEST(FaultContext, MatchesOneShotForEveryWorkerCountAndTupleHistory) {
  const char* data = std::getenv("PROTEST_DATA");
  ASSERT_NE(data, nullptr) << "PROTEST_DATA not set (see CMakeLists.txt)";
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(data))
    if (e.path().extension() == ".bench") files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  std::vector<std::pair<std::string, Netlist>> nets;
  nets.reserve(files.size() + 4);
  for (const std::string& f : files) nets.emplace_back(f, read_bench_file(f));
  for (const char* name : {"c17", "alu", "mult", "div"})
    nets.emplace_back(name, make_circuit(name));

  Executor one(1), two(2), four(4);
  for (const auto& [name, net] : nets) {
    // Small lists are repeated until they span several sweep tasks, so
    // every circuit exercises the fan-out and the scratch reuse across
    // faults and tasks.
    const std::vector<Fault> list = structural_fault_list(net);
    ASSERT_FALSE(list.empty()) << name;
    std::vector<Fault> faults;
    while (faults.size() < 4096)
      faults.insert(faults.end(), list.begin(), list.end());

    FaultAnalyzeOptions uniform;
    FaultAnalyzeOptions edges;  // 0/1 entries: hi <= 0 prunes whole cones
    edges.input_probs = grid_tuple(net);
    for (std::size_t i = 0; i < edges.input_probs.size(); i += 3)
      edges.input_probs[i] = i % 2 == 0 ? 0.0 : 1.0;
    FaultAnalyzeOptions budget;
    budget.max_cone_nodes = 64;

    // One context, three tuples in sequence: each must equal the one-shot
    // for that tuple alone, whatever the context analyzed before.
    const FaultContext ctx(net);
    for (const auto& [label, opts] :
         {std::pair{"uniform", uniform}, std::pair{"0/1 edges", edges},
          std::pair{"budget 64", budget}}) {
      const FaultAnalysis want = analyze_faults(net, faults, opts);
      for (Executor* exec : {&one, &two, &four})
        expect_same_analysis(
            analyze_faults(ctx, faults, opts, exec), want,
            name + " " + label + " on " +
                std::to_string(exec->num_workers()) + " worker(s)");
    }
  }
}

TEST(FaultContext, RejectsMismatchedOptionsAndBadFaultsBeforeSweeping) {
  const Netlist net = make_circuit("alu");
  const FaultContext ctx(net);
  std::vector<Fault> faults = structural_fault_list(net);
  FaultAnalyzeOptions no_learn;
  no_learn.learn = false;
  EXPECT_THROW(analyze_faults(ctx, faults, no_learn), std::invalid_argument);
  FaultAnalyzeOptions deeper;
  deeper.implication.depth = 2;
  EXPECT_THROW(analyze_faults(ctx, faults, deeper), std::invalid_argument);
  FaultAnalyzeOptions bad_tuple;
  bad_tuple.input_probs = {0.5};
  EXPECT_THROW(analyze_faults(ctx, faults, bad_tuple), std::invalid_argument);
  // The first bad fault raises, wherever it sits in the list.
  faults.push_back(Fault{static_cast<NodeId>(net.size()), -1, StuckAt::Zero});
  Executor exec(2);
  EXPECT_THROW(analyze_faults(ctx, faults, {}, &exec), std::invalid_argument);
  EXPECT_THROW(analyze_faults(net, faults), std::invalid_argument);
}

// --- the session artifact on a shared executor ------------------------------

TEST(FaultBoundsConcurrency, SharedExecutorServesFaultSweepBesideOptimize) {
  // Two clients on one service, so one shared executor: div's fault sweep
  // fans out while alu's hill climb screens its neighborhoods on the same
  // workers.  Every answer must be the serial service's, byte for byte.
  const std::string loads[] = {
      R"({"verb":"load_netlist","id":1,"netlist":"d","circuit":"div"})",
      R"({"verb":"load_netlist","id":2,"netlist":"a","circuit":"alu"})"};
  const std::string bounds[] = {
      R"({"verb":"fault_bounds","id":3,"netlist":"d","p":0.5})",
      R"({"verb":"fault_bounds","id":4,"netlist":"d","p":0.25})"};
  const std::string optimize =
      R"({"verb":"optimize","id":5,"netlist":"a","n":20000,"sweeps":1})";

  ServiceConfig serial_cfg;
  serial_cfg.parallel.num_threads = 1;
  ProtestService serial(serial_cfg);
  for (const std::string& l : loads) serial.handle_line(l);
  const std::string want_bounds[] = {serial.handle_line(bounds[0]),
                                     serial.handle_line(bounds[1])};
  const std::string want_optimize = serial.handle_line(optimize);
  for (const std::string& w : want_bounds)
    ASSERT_TRUE(ServiceResponse::from_json(w).ok) << w.substr(0, 200);
  ASSERT_TRUE(ServiceResponse::from_json(want_optimize).ok) << want_optimize;

  ServiceConfig cfg;
  cfg.parallel.num_threads = 4;
  ProtestService shared(cfg);
  for (const std::string& l : loads) shared.handle_line(l);
  std::string got_bounds[2];
  std::string got_optimize;
  {
    std::latch start(2);
    std::jthread faults([&] {
      start.arrive_and_wait();
      for (int i = 0; i < 2; ++i) got_bounds[i] = shared.handle_line(bounds[i]);
    });
    std::jthread climb([&] {
      start.arrive_and_wait();
      got_optimize = shared.handle_line(optimize);
    });
  }
  EXPECT_EQ(got_bounds[0], want_bounds[0]);
  EXPECT_EQ(got_bounds[1], want_bounds[1]);
  EXPECT_EQ(got_optimize, want_optimize);
}

TEST(FaultBoundsConcurrency, ScreeningSweepRunsTheNestedFaultSweepInline) {
  // mult's fault list spans several sweep tasks, so each screening task's
  // fault_bounds submits to the executor it is already running on; the
  // reentrancy guard runs it inline, and every candidate equals the serial
  // screen.
  const Netlist net = make_circuit("mult");
  SessionOptions par;
  par.parallel.num_threads = 4;
  SessionOptions ser;
  ser.parallel.num_threads = 1;
  AnalysisRequest req = AnalysisRequest::minimal();
  req.fault_bounds = true;
  AnalysisSession parallel_session(net, par);
  AnalysisSession serial_session(net, ser);
  const InputProbs t = uniform_input_probs(net, 0.5);
  const AnalysisResult pbase = parallel_session.analyze(t, req);
  const AnalysisResult sbase = serial_session.analyze(t, req);
  EXPECT_EQ(pbase.to_json(0), sbase.to_json(0));
  const double values[] = {0.25, 0.75, 0.125, 0.875};
  const std::vector<AnalysisResult> sweep =
      parallel_session.perturb_screen_sweep(pbase, 3, values);
  for (std::size_t i = 0; i < std::size(values); ++i)
    EXPECT_EQ(sweep[i].to_json(0),
              serial_session.perturb_screen(sbase, 3, values[i]).to_json(0))
        << "candidate " << i;
}

TEST(FaultBoundsConcurrency, ResultOutlivesItsSessionAndKeepsTheExecutor) {
  const Netlist net = make_circuit("mult");
  const InputProbs t = grid_tuple(net);
  AnalysisResult r;
  {
    SessionOptions opts;
    opts.parallel.num_threads = 4;
    AnalysisSession session(net, opts);
    r = session.analyze(t, AnalysisRequest::minimal());
  }
  FaultAnalyzeOptions fo;
  fo.input_probs = t;
  expect_same_analysis(r.fault_bounds(),
                       analyze_faults(net, structural_fault_list(net), fo),
                       "mult after the session is gone");
}

// --- bounded estimator ------------------------------------------------------

TEST(DetectProbsBounded, ClampsIntoIntervalAndZeroesProvenUndetectable) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
      "t = XOR(a, a)\n"
      "y = OR(t, b)\n");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  const ProtestEstimator est(net);
  const std::vector<double> p = est.signal_probs(ip);
  const Observability obs = compute_observability(net, p);
  const std::vector<double> dp =
      detection_probs_bounded(net, faults, p, obs, fa);
  ASSERT_EQ(dp.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultBound& b = fa.bounds[i];
    if (b.verdict == FaultClass::ProvenUndetectable) {
      EXPECT_EQ(dp[i], 0.0) << to_string(net, faults[i]);
    }
    EXPECT_GE(dp[i], b.lo) << to_string(net, faults[i]);
    EXPECT_LE(dp[i], b.hi) << to_string(net, faults[i]);
  }
  EXPECT_THROW(
      detection_probs_bounded(net, std::span<const Fault>(faults).first(1), p,
                              obs, fa),
      std::invalid_argument);
}

// --- pruned fault simulation ------------------------------------------------

TEST(FaultSimPruned, SkipsProvenUndetectableAndMatchesPlainElsewhere) {
  const Netlist net = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
      "t = XOR(a, a)\n"
      "u = AND(b, c)\n"
      "y = OR(t, u)\n");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  const FaultAnalysis fa = analyze_faults(net, faults);
  ASSERT_GT(fa.undetectable, 0u);
  const PatternSet ps = PatternSet::exhaustive(net.inputs().size());
  const FaultSimResult plain =
      simulate_faults(net, faults, ps, FaultSimMode::CountDetections);
  const FaultSimResult pruned =
      simulate_faults_pruned(net, faults, ps, FaultSimMode::CountDetections, fa);
  ASSERT_EQ(pruned.detect_count.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (fa.bounds[i].verdict == FaultClass::ProvenUndetectable) {
      // The proof and the simulator must agree: zero either way, and the
      // pruned run never touched the fault.
      EXPECT_EQ(plain.detect_count[i], 0u) << to_string(net, faults[i]);
      EXPECT_EQ(pruned.detect_count[i], 0u);
      EXPECT_EQ(pruned.first_detect[i], -1);
    } else {
      EXPECT_EQ(pruned.detect_count[i], plain.detect_count[i])
          << to_string(net, faults[i]);
      EXPECT_EQ(pruned.first_detect[i], plain.first_detect[i]);
    }
  }
}

TEST(FaultSimPruned, OracleThrowsOnImpossibleInterval) {
  const Netlist net = make_circuit("c17");
  const std::vector<Fault> faults = collapsed_fault_list(net);
  FaultAnalysis fa = analyze_faults(net, faults);
  // Sabotage one interval to exclude the true detection probability by
  // far more than the 6-sigma slack: the cross-check must fail loudly.
  // (4096 patterns -> slack ~0.047; no c17 fault detects above ~0.95.)
  fa.bounds[0].lo = 0.999;
  fa.bounds[0].hi = 1.0;
  fa.bounds[0].verdict = FaultClass::ProvenDetectable;
  const PatternSet ps = PatternSet::random(net.inputs().size(), 4096, 99);
  EXPECT_THROW(simulate_faults_pruned(net, faults, ps,
                                      FaultSimMode::CountDetections, fa),
               std::logic_error);
  EXPECT_THROW(
      simulate_faults_pruned(net, std::span<const Fault>(faults).first(2), ps,
                             FaultSimMode::CountDetections, fa),
      std::invalid_argument);
}

}  // namespace
}  // namespace protest
