// The session-oriented analysis API: request/response artifacts, the
// tuple cache, the incremental perturb() path, and JSON serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "analysis/json.hpp"
#include "circuits/iscas.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/zoo.hpp"
#include "protest/session.hpp"

namespace protest {
namespace {

InputProbs varied_tuple(const Netlist& net, double base) {
  InputProbs t = uniform_input_probs(net, base);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = 0.1 + 0.05 * static_cast<double>(i % 16);
  return t;
}

TEST(AnalysisSession, RepeatedTupleIsACacheHit) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  const AnalysisResult a = session.analyze(ip);
  const AnalysisResult b = session.analyze(ip);
  EXPECT_EQ(session.stats().analyze_calls, 2u);
  EXPECT_EQ(session.stats().cache_hits, 1u);
  EXPECT_EQ(session.stats().full_evals, 1u);
  // Identical vectors — in fact the same shared memoization state.
  EXPECT_EQ(a.signal_probs(), b.signal_probs());
  EXPECT_EQ(&a.signal_probs(), &b.signal_probs());
  EXPECT_EQ(&a.detection_probs(), &b.detection_probs());
}

TEST(AnalysisSession, StatsSerializeToJson) {
  // The wire form behind the daemon's `stats` verb: all counters plus the
  // resident cache occupancy, parseable by the library's own reader.
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  const AnalysisResult base = session.analyze(ip);
  session.analyze(ip);             // hit
  session.perturb(base, 0, 0.25);  // incremental route
  session.perturb_screen(base, 0, 0.75);

  const JsonValue doc = parse_json(session.stats().to_json(0));
  EXPECT_EQ(doc.at("analyze_calls").as_number(), 2.0);
  EXPECT_EQ(doc.at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(doc.at("cache_misses").as_number(), 1.0);
  EXPECT_EQ(doc.at("incremental_evals").as_number(), 1.0);
  EXPECT_EQ(doc.at("screen_evals").as_number(), 1.0);
  EXPECT_EQ(doc.at("full_evals").as_number(), 1.0);
  // Base tuple + exact perturb product are resident; the screened result
  // never enters the cache.
  EXPECT_EQ(doc.at("resident_results").as_number(), 2.0);
}

TEST(AnalysisSession, NearDuplicateTupleTakesTheIncrementalPath) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  InputProbs ip = uniform_input_probs(net, 0.5);
  session.analyze(ip);
  ip[2] = 0.25;  // one coordinate away from the cached tuple
  const AnalysisResult inc = session.analyze(ip);
  EXPECT_EQ(session.stats().incremental_evals, 1u);
  EXPECT_EQ(session.stats().full_evals, 1u);
  // Bit-for-bit what a cold session computes from scratch.
  AnalysisSession cold(net);
  EXPECT_EQ(inc.signal_probs(), cold.analyze(ip).signal_probs());
}

TEST(AnalysisSession, PerturbMatchesFromScratchAnalyze) {
  // Acceptance: perturb() == from-scratch analyze() on the same tuple,
  // bit for bit, on the PROTEST and naive engines.  The ALU has heavy
  // reconvergence, so the PROTEST conditioning path is fully exercised.
  const Netlist net = make_circuit("alu");
  for (const char* engine : {"protest", "naive"}) {
    SessionOptions opts;
    opts.engine = engine;
    AnalysisSession session(net, opts);
    const AnalysisResult base = session.analyze(varied_tuple(net, 0.5));
    for (std::size_t idx : {std::size_t{0}, net.inputs().size() - 1}) {
      for (double new_p : {0.0625, 0.9375}) {
        const AnalysisResult inc = session.perturb(base, idx, new_p);
        InputProbs perturbed = base.input_probs();
        perturbed[idx] = new_p;
        EXPECT_EQ(inc.input_probs(), perturbed);
        AnalysisSession cold(net, opts);
        const AnalysisResult scratch = cold.analyze(perturbed);
        EXPECT_EQ(inc.signal_probs(), scratch.signal_probs())
            << engine << " input " << idx << " p " << new_p;
        EXPECT_EQ(inc.detection_probs(), scratch.detection_probs())
            << engine << " input " << idx << " p " << new_p;
      }
    }
  }
}

TEST(AnalysisSession, ScreeningPerturbMatchesEvaluationUnderBaseSelection) {
  // perturb_screen() conditions on the sets selected at the base tuple —
  // bit for bit a full evaluation of the perturbed tuple under them, even
  // after other tuples and exact perturbs went through the session's
  // engine — and must not pollute the exact-fidelity tuple cache.
  const Netlist net = make_circuit("alu");
  AnalysisSession session(net);
  const InputProbs base = varied_tuple(net, 0.5);
  const AnalysisResult base_r = session.analyze(base);
  InputProbs perturbed = base;
  perturbed[3] = 0.8125;

  const ProtestEngine reference(net);
  const std::vector<double> want = reference.estimator().evaluate_under(
      perturbed, *reference.evaluate(base).selection);
  session.analyze(uniform_input_probs(net, 0.3));
  EXPECT_EQ(session.perturb_screen(base_r, 3, 0.8125).signal_probs(), want);
  for (std::size_t i = 0; i < net.inputs().size(); i += 3)
    session.perturb(base_r, i, 0.0625);
  const AnalysisResult screened = session.perturb_screen(base_r, 3, 0.8125);
  EXPECT_EQ(screened.signal_probs(), want);
  EXPECT_EQ(session.stats().screen_evals, 2u);

  // The exact path disagrees with the screening on a reconvergent circuit
  // (it re-selects), and analyze() must serve the exact value.
  const std::size_t hits = session.stats().cache_hits;
  const AnalysisResult exact = session.analyze(perturbed);
  EXPECT_EQ(session.stats().cache_hits, hits);
  EXPECT_EQ(exact.signal_probs(), reference.signal_probs(perturbed));
}

TEST(AnalysisSession, PerturbFallsBackOnNonIncrementalEngines) {
  const Netlist net = make_c17();
  SessionOptions opts;
  opts.engine = "exact-enum";
  AnalysisSession session(net, opts);
  EXPECT_FALSE(session.engine().incremental());
  const AnalysisResult base = session.analyze(uniform_input_probs(net, 0.5));
  const AnalysisResult inc = session.perturb(base, 0, 0.25);
  InputProbs perturbed = uniform_input_probs(net, 0.5);
  perturbed[0] = 0.25;
  AnalysisSession cold(net, opts);
  EXPECT_EQ(inc.signal_probs(), cold.analyze(perturbed).signal_probs());
}

TEST(AnalysisSession, PerturbValidatesItsArguments) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  AnalysisSession other(net);
  const AnalysisResult base = session.analyze(uniform_input_probs(net, 0.5));
  EXPECT_THROW(session.perturb(base, 99, 0.5), std::invalid_argument);
  EXPECT_THROW(session.perturb(base, 0, 1.5), std::invalid_argument);
  EXPECT_THROW(session.perturb(AnalysisResult{}, 0, 0.5),
               std::invalid_argument);
  EXPECT_THROW(other.perturb(base, 0, 0.5), std::invalid_argument);
}

TEST(AnalysisSession, ScreenedResultsCannotSeedPerturbs) {
  // A perturb() chained off a screening result would smuggle
  // frozen-selection numbers into the exact-fidelity tuple cache.
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult base = session.analyze(uniform_input_probs(net, 0.5));
  const AnalysisResult screened = session.perturb_screen(base, 0, 0.25);
  EXPECT_THROW(session.perturb(screened, 1, 0.75), std::invalid_argument);
  EXPECT_THROW(session.perturb_screen(screened, 1, 0.75),
               std::invalid_argument);
}

TEST(AnalysisSession, LazyArtifactsAreMemoized) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult r =
      session.analyze(uniform_input_probs(net, 0.5), AnalysisRequest::minimal());
  const std::vector<double>& pf = r.detection_probs();  // computed on access
  EXPECT_EQ(pf.size(), session.faults().size());
  EXPECT_EQ(&r.detection_probs(), &pf);  // memoized, not recomputed
  EXPECT_EQ(r.observability().stem.size(), net.size());
  EXPECT_EQ(r.scoap().cc0.size(), net.size());
  EXPECT_EQ(r.stafan().c1.size(), net.size());
}

TEST(AnalysisSession, CacheKeepsNoViews) {
  // The cache keeps each tuple's evaluation; the observability and
  // detection views belong to the result handles.  Once every handle of a
  // default-artifact analyze is gone, the cache holds what a signal-
  // probabilities-only analyze of the tuple leaves, and a hit rebuilds
  // the views into the same bytes.
  const Netlist net = make_circuit("alu");
  const InputProbs ip = varied_tuple(net, 0.5);
  AnalysisSession session(net);
  std::string first;
  {
    const AnalysisResult r = session.analyze(ip);
    const AnalysisResult copy = r;  // copies share one views block
    EXPECT_EQ(&copy.detection_probs(), &r.detection_probs());
    first = r.to_json(0);
  }
  AnalysisSession minimal(net);
  minimal.analyze(ip, AnalysisRequest::minimal());
  const SessionStats kept = session.stats();
  EXPECT_EQ(kept.resident_results, 1u);
  EXPECT_EQ(kept.resident_bytes, minimal.stats().resident_bytes);
  // The tuple and the signal probabilities, plus the conditioning sets.
  EXPECT_GT(kept.resident_bytes, (ip.size() + net.size()) * sizeof(double));

  const AnalysisResult hit = session.analyze(ip);
  EXPECT_EQ(session.stats().cache_hits, 1u);
  EXPECT_EQ(hit.to_json(0), first);
  EXPECT_EQ(session.stats().resident_bytes, kept.resident_bytes);

  // Fault bounds cost a sweep to rebuild, so the cache keeps and counts
  // them.
  AnalysisRequest bounds = AnalysisRequest::minimal();
  bounds.fault_bounds = true;
  session.analyze(ip, bounds);
  EXPECT_EQ(session.stats().resident_bytes,
            kept.resident_bytes + session.faults().size() * sizeof(FaultBound));
  EXPECT_NE(session.stats().to_json(0).find("\"resident_bytes\":"),
            std::string::npos);
}

TEST(AnalysisSession, ConcurrentHitsShareOneViews) {
  // Hits racing on one cached tuple whose handles are all gone: the first
  // to attach starts a views block, the others re-attach to it while it
  // is held, and the detection probabilities are built once.
  const Netlist net = make_circuit("alu");
  const InputProbs ip = varied_tuple(net, 0.5);
  AnalysisSession session(net);
  session.analyze(ip);
  constexpr std::size_t kThreads = 8;
  std::vector<AnalysisResult> hits(kThreads);
  std::vector<const std::vector<double>*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      hits[t] = session.analyze(ip);
      seen[t] = &hits[t].detection_probs();
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(session.stats().cache_hits, kThreads);
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  AnalysisSession cold(net);
  EXPECT_EQ(*seen[0], cold.analyze(ip).detection_probs());
}

TEST(AnalysisSession, ResultsOutliveTheSessionAndItsCache) {
  const Netlist net = make_c17();
  AnalysisResult r;
  {
    AnalysisSession session(net);
    r = session.analyze(uniform_input_probs(net, 0.5),
                        AnalysisRequest::minimal());
  }
  EXPECT_EQ(r.detection_probs().size(), r.faults().size());
}

TEST(AnalysisSession, CacheRespectsItsBound) {
  const Netlist net = make_c17();
  SessionOptions opts;
  opts.max_cached_results = 2;
  AnalysisSession session(net, opts);
  const InputProbs a = uniform_input_probs(net, 0.1);
  session.analyze(a);
  session.analyze(uniform_input_probs(net, 0.2));
  session.analyze(uniform_input_probs(net, 0.3));  // evicts the 0.1 tuple
  session.analyze(a);
  EXPECT_EQ(session.stats().cache_hits, 0u);
  EXPECT_EQ(session.stats().full_evals, 4u);
}

TEST(AnalysisSession, ClearCacheForgetsTuples) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const InputProbs ip = uniform_input_probs(net, 0.5);
  session.analyze(ip);
  session.clear_cache();
  session.analyze(ip);
  EXPECT_EQ(session.stats().cache_hits, 0u);
  EXPECT_EQ(session.stats().full_evals, 2u);
}

TEST(AnalysisSession, BatchHasExactPerTupleSemantics) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const std::vector<InputProbs> tuples = {uniform_input_probs(net, 0.5),
                                          uniform_input_probs(net, 0.3),
                                          uniform_input_probs(net, 0.5)};
  const auto results = session.analyze_batch(tuples);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(session.stats().cache_hits, 1u);  // the repeated 0.5 tuple
  for (std::size_t t = 0; t < tuples.size(); ++t) {
    AnalysisSession cold(net);
    EXPECT_EQ(results[t].signal_probs(),
              cold.analyze(tuples[t]).signal_probs())
        << "tuple " << t;
  }
}

TEST(AnalysisSession, JsonContainsRequestedArtifactsOnly) {
  const Netlist net = make_c17();
  AnalysisSession session(net);
  AnalysisRequest req = AnalysisRequest::minimal();
  const std::string minimal =
      session.analyze(uniform_input_probs(net, 0.5), req).to_json();
  EXPECT_NE(minimal.find("\"signal_probs\""), std::string::npos);
  EXPECT_EQ(minimal.find("\"detection_probs\""), std::string::npos);
  EXPECT_EQ(minimal.find("\"observability\""), std::string::npos);
  EXPECT_EQ(minimal.find("\"scoap\""), std::string::npos);

  req = AnalysisRequest::everything();
  const std::string full =
      session.analyze(uniform_input_probs(net, 0.5), req).to_json();
  for (const char* key : {"\"engine\"", "\"circuit\"", "\"input_probs\"",
                          "\"signal_probs\"", "\"observability\"",
                          "\"detection_probs\"", "\"test_lengths\"",
                          "\"scoap\"", "\"stafan\""})
    EXPECT_NE(full.find(key), std::string::npos) << key;
}

/// Where two documents first differ, or "" when they are equal: a failure
/// message that does not print whole payloads.
std::string first_difference(std::string_view a, std::string_view b) {
  if (a == b) return "";
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
  return "sizes " + std::to_string(a.size()) + " and " +
         std::to_string(b.size()) + ", first difference at byte " +
         std::to_string(at) + ": \"" + std::string(a.substr(at, 40)) +
         "\" vs \"" + std::string(b.substr(at, 40)) + "\"";
}

TEST(AnalysisSession, JsonIsByteIdenticalAtEveryWorkerCount) {
  // The node- and fault-sized arrays are written in JsonWriter chunks
  // across the session's executor; a 4-worker session must serialize
  // exactly what a serial one does, compact and indented.
  const auto expect_same_json = [](const Netlist& net,
                                   const AnalysisRequest& req,
                                   const std::string& what) {
    SessionOptions serial;
    serial.stafan_patterns = 256;  // the arrays, not the sampling, matter
    serial.parallel.num_threads = 1;
    SessionOptions wide = serial;
    wide.parallel.num_threads = 4;
    AnalysisSession one(net, serial);
    // One engine, so its plan is built once; only the executor differs.
    AnalysisSession four(net, one.engine_ptr(), one.faults(), wide);
    const InputProbs ip = varied_tuple(net, 0.5);
    const AnalysisResult a = one.analyze(ip, req);
    const AnalysisResult b = four.analyze(ip, req);
    EXPECT_EQ(first_difference(a.to_json(0), b.to_json(0)), "") << what;
    EXPECT_EQ(first_difference(a.to_json(2), b.to_json(2)), "") << what;
  };
  // Node arrays (signal_probs, scoap, stafan) ending one element before,
  // exactly on, and one element past the second chunk boundary.  More
  // primary inputs than one chunk, which keeps the circuits cheap to
  // analyze and makes node ids [0, kChunk) all inputs: the first chunk of
  // each node array writes nothing.  The fault arrays span several chunks.
  constexpr std::size_t kChunk = JsonWriter::kElementsPerChunk;
  for (const std::size_t nodes : {2 * kChunk - 1, 2 * kChunk, 2 * kChunk + 1}) {
    RandomCircuitParams p;
    p.num_inputs = kChunk + 64;
    p.num_gates = nodes - p.num_inputs;
    p.max_fanin = 2;
    p.seed = nodes;
    const Netlist net = make_random_circuit(p);
    ASSERT_EQ(net.size(), nodes);
    expect_same_json(net, AnalysisRequest::everything(),
                     std::to_string(nodes) + " nodes");
  }
  // div with the default artifacts: the served what-if payload.
  expect_same_json(make_circuit("div"), AnalysisRequest{}, "div");
}

TEST(AnalysisSession, JsonRoundTripsProbabilities) {
  // The writer must emit enough digits that a reader recovers the exact
  // doubles; spot-check one node value against its serialization.
  const Netlist net = make_c17();
  AnalysisSession session(net);
  const AnalysisResult r = session.analyze(varied_tuple(net, 0.5));
  const std::string json = r.to_json(0);  // compact mode, single line
  const NodeId out0 = net.outputs()[0];
  const std::string key = "\"node\":\"" + net.name_of(out0) + "\",\"p1\":";
  const std::size_t pos = json.find(key);
  ASSERT_NE(pos, std::string::npos) << json;
  const double parsed = std::stod(json.substr(pos + key.size()));
  EXPECT_EQ(parsed, r.signal_probs()[out0]);
}

TEST(AnalysisSession, EngineMismatchIsRejected) {
  const Netlist a = make_c17();
  const Netlist b = make_c17();
  auto engine_on_b = make_engine("naive", b);
  EXPECT_THROW(AnalysisSession(a, std::move(engine_on_b), {}),
               std::invalid_argument);
}

/// This process's thread count (the Threads: line of /proc/self/status),
/// or 0 where that file does not exist.
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

// A session built from options alone resolves one executor and hands it to
// its engine, so the Monte-Carlo shards and the fault-bounds sweep run on
// one 4-worker pool: 3 threads beside the caller, not two pools' 6.
TEST(AnalysisSession, MonteCarloSessionRunsOnOnePool) {
  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  const Netlist net = make_circuit("div");
  SessionOptions opts;
  opts.engine = "monte-carlo";
  opts.monte_carlo.num_patterns = 20'000;
  opts.parallel.num_threads = 4;
  AnalysisSession session(net, opts);
  const AnalysisResult r = session.analyze(uniform_input_probs(net, 0.5));
  EXPECT_EQ(process_threads(), before + 3);
  EXPECT_FALSE(r.fault_bounds().bounds.empty());
  EXPECT_EQ(process_threads(), before + 3);
}

}  // namespace
}  // namespace protest
