// The parallel evaluation layer: the thread pool, the sharded Monte-Carlo
// engine (thread-count invariance + the seeding contract), engines shared
// by concurrent callers, the parallel neighborhood sweep, and concurrent
// AnalysisSession and service access.  This suite (with session_test) is
// what the CI ThreadSanitizer job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuits/iscas.hpp"
#include "circuits/zoo.hpp"
#include "optimize/objective.hpp"
#include "prob/engine.hpp"
#include "prob/monte_carlo.hpp"
#include "protest/service.hpp"
#include "protest/session.hpp"
#include "util/thread_pool.hpp"

namespace protest {
namespace {

ParallelConfig with_threads(unsigned n) {
  ParallelConfig cfg;
  cfg.num_threads = n;
  return cfg;
}

InputProbs varied_tuple(const Netlist& net, double base) {
  InputProbs t = uniform_input_probs(net, base);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = 0.1 + 0.05 * static_cast<double>(i % 16);
  return t;
}

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const unsigned workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.num_workers(), workers);
    constexpr std::size_t kTasks = 1000;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.parallel_for(kTasks, [&](std::size_t t, unsigned w) {
      ASSERT_LT(w, workers);
      hits[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t t = 0; t < kTasks; ++t)
      EXPECT_EQ(hits[t].load(), 1) << "task " << t << " @ " << workers;
  }
}

TEST(ThreadPool, ResolvesZeroToHardwareConcurrency) {
  EXPECT_GE(with_threads(0).resolved(), 1u);
  EXPECT_EQ(with_threads(1).resolved(), 1u);
  EXPECT_EQ(with_threads(5).resolved(), 5u);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  for (const unsigned workers : {1u, 4u}) {
    ThreadPool pool(workers);
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](std::size_t t, unsigned) {
                            if (t == 7) throw std::runtime_error("task 7");
                          }),
        std::runtime_error);
    // The pool survives a failed job.
    std::atomic<std::size_t> done{0};
    pool.parallel_for(64, [&](std::size_t, unsigned) { ++done; });
    EXPECT_EQ(done.load(), 64u);
  }
}

// --- sharded Monte-Carlo ----------------------------------------------------

TEST(ParallelMonteCarlo, BitIdenticalForAnyThreadCount) {
  // Acceptance: the sharded estimate must not depend on the worker count
  // — same shards, same per-shard streams, exact integer reduction.
  const Netlist net = make_circuit("alu");
  const InputProbs ip = varied_tuple(net, 0.5);
  MonteCarloEngineParams params;
  params.num_patterns = 50'000;  // 7 shards: more shards than workers
  params.seed = 99;
  params.parallel.num_threads = 1;
  const std::vector<double> serial =
      MonteCarloEngine(net, params).signal_probs(ip);
  for (const unsigned threads : {2u, 8u}) {
    params.parallel.num_threads = threads;
    const MonteCarloEngine engine(net, params);
    EXPECT_TRUE(engine.internally_parallel());
    EXPECT_EQ(engine.signal_probs(ip), serial) << threads << " threads";
  }
}

TEST(ParallelMonteCarlo, ReusedWorkersBitIdenticalAcrossThreadCounts) {
  const Netlist net = make_c17();
  const std::vector<InputProbs> tuples = {uniform_input_probs(net, 0.5),
                                          varied_tuple(net, 0.3),
                                          uniform_input_probs(net, 0.125)};
  MonteCarloEngineParams params;
  params.num_patterns = 20'000;
  params.parallel.num_threads = 1;
  const MonteCarloEngine serial(net, params);
  params.parallel.num_threads = 4;
  const MonteCarloEngine threaded(net, params);
  // Regression for the seeding contract: an engine that already ran other
  // tuples (its per-worker simulators reused) equals a fresh engine's
  // single call — shard streams derive from (seed, shard) only.
  for (std::size_t t = 0; t < tuples.size(); ++t) {
    params.parallel.num_threads = 1;
    const std::vector<double> fresh =
        MonteCarloEngine(net, params).signal_probs(tuples[t]);
    EXPECT_EQ(serial.signal_probs(tuples[t]), fresh) << "tuple " << t;
    EXPECT_EQ(threaded.signal_probs(tuples[t]), fresh) << "tuple " << t;
  }
}

TEST(ParallelMonteCarlo, FreeFunctionSharesTheEngineDerivation) {
  // monte_carlo_signal_probs and the engine follow one stream-derivation
  // rule, so the scalable reference stays comparable across entry points.
  const Netlist net = make_c17();
  const InputProbs ip = uniform_input_probs(net, 0.25);
  MonteCarloEngineParams params;
  params.num_patterns = 10'000;
  params.seed = 7;
  params.parallel.num_threads = 2;
  EXPECT_EQ(monte_carlo_signal_probs(net, ip, 10'000, 7),
            MonteCarloEngine(net, params).signal_probs(ip));
}

TEST(ParallelMonteCarlo, StreamSeedsAreShardUnique) {
  // Pin the derivation rule: distinct shards of one seed — and the same
  // shard of adjacent seeds — start distinct RNG streams.
  EXPECT_NE(monte_carlo_stream_seed(1, 0), monte_carlo_stream_seed(1, 1));
  EXPECT_NE(monte_carlo_stream_seed(1, 0), monte_carlo_stream_seed(2, 0));
  EXPECT_EQ(monte_carlo_num_shards(1), 1u);
  EXPECT_EQ(monte_carlo_num_shards(kMonteCarloShardPatterns), 1u);
  EXPECT_EQ(monte_carlo_num_shards(kMonteCarloShardPatterns + 1), 2u);
  // Out-of-range probabilities throw on every entry point (a negative
  // double cast to the unsigned threshold would be UB).
  const std::vector<double> bad = {-0.5};
  EXPECT_THROW(monte_carlo_thresholds(bad), std::invalid_argument);
}

// --- one engine, many threads ----------------------------------------------

/// Runs fn(thread) on `n` threads released together.
template <class Fn>
void run_together(unsigned n, Fn fn) {
  std::latch start(n);
  std::vector<std::jthread> threads;
  for (unsigned th = 0; th < n; ++th)
    threads.emplace_back([&, th] {
      start.arrive_and_wait();
      fn(th);
    });
}

TEST(SharedEngine, ConcurrentCallersMatchSerialOnEveryEngine) {
  // Four threads evaluate through one fresh engine at once (racing the
  // PROTEST plan build); every result equals a serial engine's.
  const Netlist net = make_c17();
  std::vector<InputProbs> tuples;
  for (double p : {0.5, 0.25, 0.125, 0.75, 0.0625})
    tuples.push_back(uniform_input_probs(net, p));
  EngineConfig cfg;
  cfg.monte_carlo.num_patterns = 4096;
  for (const std::string& name : engine_names()) {
    const auto serial = make_engine(name, net, cfg);
    std::vector<std::vector<double>> want;
    for (const InputProbs& t : tuples) want.push_back(serial->signal_probs(t));
    const auto shared = make_engine(name, net, cfg);
    std::atomic<int> mismatches{0};
    run_together(4, [&](unsigned th) {
      for (std::size_t k = 0; k < tuples.size(); ++k) {
        const std::size_t t = (k + th) % tuples.size();
        if (shared->signal_probs(tuples[t]) != want[t]) ++mismatches;
      }
    });
    EXPECT_EQ(mismatches.load(), 0) << name;
  }
}

TEST(SharedEngine, ProtestEngineServesEveryEntryPointFromFourThreads) {
  // Full evaluations, exact perturbs and screens from four threads on one
  // ProtestEngine: each is bit-identical to the same call made serially,
  // because the conditioning sets travel with the results.
  const Netlist net = make_circuit("alu");
  const ProtestEngine serial(net);
  const ProtestEngine shared(net);
  const std::size_t ni = net.inputs().size();
  std::vector<InputProbs> bases;
  std::vector<Evaluation> base_evals;
  for (unsigned th = 0; th < 4; ++th) {
    bases.push_back(varied_tuple(net, 0.5));
    bases.back()[th] = 0.0625 * (th + 3);
    base_evals.push_back(serial.evaluate(bases.back()));
  }
  struct Want {
    Evaluation full, exact;
    std::vector<double> screen;
  };
  std::vector<std::vector<Want>> want(4);
  for (unsigned th = 0; th < 4; ++th)
    for (std::size_t i = 0; i < ni; ++i)
      want[th].push_back({serial.evaluate(bases[th]),
                          serial.perturb(bases[th], base_evals[th], i, 0.875),
                          serial.screen(bases[th], base_evals[th], i, 0.125)});

  std::atomic<int> mismatches{0};
  run_together(4, [&](unsigned th) {
    const Evaluation base = shared.evaluate(bases[th]);
    if (base.probs != base_evals[th].probs ||
        *base.selection != *base_evals[th].selection)
      ++mismatches;
    for (std::size_t i = 0; i < ni; ++i) {
      const Want& w = want[th][i];
      const Evaluation exact = shared.perturb(bases[th], base, i, 0.875);
      if (exact.probs != w.exact.probs ||
          *exact.selection != *w.exact.selection)
        ++mismatches;
      if (shared.screen(bases[th], base, i, 0.125) != w.screen) ++mismatches;
      if (shared.evaluate(bases[th]).probs != w.full.probs) ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// --- parallel neighborhood sweep --------------------------------------------

TEST(ParallelSweep, BitIdenticalForAnyThreadCount) {
  // Acceptance: session perturb_screen_sweep — and through it the hill
  // climber's neighborhoods — must be bit-identical at 1/2/8 threads.
  const Netlist net = make_circuit("alu");
  const InputProbs base = varied_tuple(net, 0.5);
  const std::vector<double> values = {0.0625, 0.25, 0.4375, 0.625, 0.9375};
  const std::size_t coord = 3;

  std::vector<std::vector<std::vector<double>>> probs_by_threads;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SessionOptions opts;
    opts.parallel.num_threads = threads;
    AnalysisSession session(net, opts);
    const AnalysisResult base_result = session.analyze(base);
    const std::vector<AnalysisResult> swept =
        session.perturb_screen_sweep(base_result, coord, values);
    ASSERT_EQ(swept.size(), values.size());
    std::vector<std::vector<double>> probs;
    for (const AnalysisResult& r : swept) probs.push_back(r.signal_probs());
    probs_by_threads.push_back(std::move(probs));
    // The sweep has perturb_screen semantics element by element.
    for (std::size_t i = 0; i < values.size(); ++i)
      EXPECT_EQ(swept[i].signal_probs(),
                session.perturb_screen(base_result, coord, values[i])
                    .signal_probs())
          << threads << " threads, value " << i;
  }
  EXPECT_EQ(probs_by_threads[1], probs_by_threads[0]);
  EXPECT_EQ(probs_by_threads[2], probs_by_threads[0]);
}

TEST(ParallelSweep, NeighborhoodObjectivesInvariantUnderThreads) {
  const Netlist net = make_c17();
  const std::vector<Fault> faults = structural_fault_list(net);
  const InputProbs base = uniform_input_probs(net, 0.5);
  const std::vector<double> values = {0.125, 0.375, 0.875};

  ObjectiveEvaluator serial(net, faults, 1000, {}, {}, with_threads(1));
  const auto want = serial.log_objectives_neighborhood(base, 1, values);
  for (const unsigned threads : {2u, 8u}) {
    ObjectiveEvaluator parallel(net, faults, 1000, {}, {},
                                with_threads(threads));
    const auto got = parallel.log_objectives_neighborhood(base, 1, values);
    EXPECT_EQ(got.base, want.base) << threads;
    EXPECT_EQ(got.candidates, want.candidates) << threads;
  }
}

// --- concurrent session access ----------------------------------------------

TEST(ConcurrentSession, ParallelCallersMatchTheSerialResults) {
  // Four threads hammer one session with overlapping analyze/perturb
  // queries; every answer must equal the serial reference.  Run under
  // TSan in CI to prove the mutex tier actually covers the caches.
  const Netlist net = make_c17();
  AnalysisSession reference(net);
  std::vector<InputProbs> tuples;
  std::vector<std::vector<double>> want;
  for (double p : {0.5, 0.25, 0.75, 0.125})
    tuples.push_back(uniform_input_probs(net, p));
  for (const InputProbs& t : tuples)
    want.push_back(reference.analyze(t).signal_probs());

  AnalysisSession session(net);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < 4; ++th)
    threads.emplace_back([&, th] {
      for (int rep = 0; rep < 8; ++rep) {
        const std::size_t i = static_cast<std::size_t>(th + rep) % tuples.size();
        const AnalysisResult r = session.analyze(tuples[i]);
        if (r.signal_probs() != want[i]) ++mismatches;
        // Shared lazy artifacts memoize once under the result lock.
        if (r.detection_probs().size() != session.faults().size())
          ++mismatches;
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(session.stats().analyze_calls, 32u);
}

TEST(ConcurrentService, OptimizeAndAnalyzeShareOneNetlist) {
  // A served optimize climbs through the resident session's engine while
  // analyze requests for the same netlist run; every answer equals the
  // one a quiet service gives.
  const std::string load =
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"a\","
      "\"circuit\":\"alu\"}";
  const std::string optimize =
      "{\"verb\":\"optimize\",\"id\":2,\"netlist\":\"a\",\"n\":1000,"
      "\"sweeps\":1}";
  auto analyze = [](int k) {
    return "{\"verb\":\"analyze\",\"id\":3,\"netlist\":\"a\",\"p\":" +
           std::to_string(0.0625 * (k % 15 + 1)) + "}";
  };
  ProtestService quiet;
  quiet.handle_line(load);
  const std::string want_opt = quiet.handle_line(optimize);
  std::vector<std::string> want_analyze;
  for (int k = 0; k < 15; ++k)
    want_analyze.push_back(quiet.handle_line(analyze(k)));
  ASSERT_NE(want_opt.find("\"ok\":true"), std::string::npos) << want_opt;

  ProtestService busy;
  busy.handle_line(load);
  std::string got_opt;
  std::atomic<int> mismatches{0};
  run_together(3, [&](unsigned th) {
    if (th == 0) {
      got_opt = busy.handle_line(optimize);
      return;
    }
    for (int k = 0; k < 15; ++k) {
      const int t = (k + static_cast<int>(th) * 7) % 15;
      if (busy.handle_line(analyze(t)) != want_analyze[t]) ++mismatches;
    }
  });
  EXPECT_EQ(got_opt, want_opt);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentSession, ParallelPerturbsMatchFromScratch) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult base = session.analyze(uniform_input_probs(net, 0.5));
  std::vector<std::vector<double>> got(net.inputs().size());
  std::vector<std::thread> threads;
  for (std::size_t idx = 0; idx < net.inputs().size(); ++idx)
    threads.emplace_back([&, idx] {
      got[idx] = session.perturb(base, idx, 0.2).signal_probs();
    });
  for (std::thread& t : threads) t.join();
  for (std::size_t idx = 0; idx < net.inputs().size(); ++idx) {
    InputProbs ip = uniform_input_probs(net, 0.5);
    ip[idx] = 0.2;
    AnalysisSession cold(net);
    EXPECT_EQ(got[idx], cold.analyze(ip).signal_probs()) << "input " << idx;
  }
}

}  // namespace
}  // namespace protest
