// The service layer: SessionRegistry residency/LRU, the
// ServiceRequest/ServiceResponse wire protocol, ProtestService dispatch,
// and the NDJSON daemon loop.  The parity test pins the acceptance
// guarantee: a scripted serve conversation produces byte-identical
// artifact payloads to the equivalent direct AnalysisSession calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/json.hpp"
#include "circuits/zoo.hpp"
#include "protest/service.hpp"

namespace protest {
namespace {

ParallelConfig with_threads(unsigned n) {
  ParallelConfig cfg;
  cfg.num_threads = n;
  return cfg;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// --- protocol round-trips ---------------------------------------------------

TEST(ServiceProtocol, RequestRoundTripsEveryVerb) {
  std::vector<ServiceRequest> requests;

  ServiceRequest load;
  load.verb = ServiceVerb::LoadNetlist;
  load.id = 1;
  load.netlist = "alu";
  load.circuit = "alu";
  load.engine = "monte-carlo";
  load.seed = 7;
  load.patterns = 200'000;
  load.max_cached_results = 64;
  requests.push_back(load);

  ServiceRequest load_src;
  load_src.verb = ServiceVerb::LoadNetlist;
  load_src.id = 2;
  load_src.netlist = "inline";
  load_src.source = "module m(input a, output y);\n  assign y = !a;\n";
  requests.push_back(load_src);

  ServiceRequest analyze;
  analyze.verb = ServiceVerb::Analyze;
  analyze.id = 3;
  analyze.netlist = "alu";
  analyze.input_probs = {0.5, 0.25, 0.125};
  AnalysisRequest artifacts = AnalysisRequest::everything();
  artifacts.d_grid = {1.0, 0.98};
  artifacts.e_grid = {0.95};
  analyze.artifacts = artifacts;
  requests.push_back(analyze);

  ServiceRequest perturb;
  perturb.verb = ServiceVerb::Perturb;
  perturb.id = 4;
  perturb.netlist = "alu";
  perturb.p = 0.5;
  perturb.input_index = 3;
  perturb.new_p = 0.8125;
  perturb.screen = true;
  requests.push_back(perturb);

  ServiceRequest optimize;
  optimize.verb = ServiceVerb::Optimize;
  optimize.id = 5;
  optimize.netlist = "alu";
  optimize.n_parameter = 20'000;
  optimize.sweeps = 2;
  requests.push_back(optimize);

  ServiceRequest stats;
  stats.verb = ServiceVerb::Stats;
  stats.id = 6;
  requests.push_back(stats);

  ServiceRequest evict;
  evict.verb = ServiceVerb::Evict;
  evict.id = 7;
  evict.netlist = "alu";
  requests.push_back(evict);

  ServiceRequest shutdown;
  shutdown.verb = ServiceVerb::Shutdown;
  shutdown.id = 8;
  requests.push_back(shutdown);

  ServiceRequest submit;
  submit.verb = ServiceVerb::Submit;
  submit.id = 9;
  submit.subrequest = std::make_shared<ServiceRequest>(analyze);
  requests.push_back(submit);

  ServiceRequest poll;
  poll.verb = ServiceVerb::Poll;
  poll.id = 10;
  poll.job = 3;
  requests.push_back(poll);

  ServiceRequest wait;
  wait.verb = ServiceVerb::Wait;
  wait.id = 11;
  wait.job = 3;
  wait.timeout_ms = 2'500;
  requests.push_back(wait);

  ServiceRequest cancel;
  cancel.verb = ServiceVerb::Cancel;
  cancel.id = 12;
  cancel.job = 3;
  requests.push_back(cancel);

  ServiceRequest jobs;
  jobs.verb = ServiceVerb::Jobs;
  jobs.id = 13;
  requests.push_back(jobs);

  ServiceRequest strict_load;
  strict_load.verb = ServiceVerb::LoadNetlist;
  strict_load.id = 14;
  strict_load.netlist = "alu";
  strict_load.circuit = "alu";
  strict_load.strict = true;
  requests.push_back(strict_load);

  ServiceRequest lint;
  lint.verb = ServiceVerb::Lint;
  lint.id = 15;
  lint.netlist = "alu";
  lint.p = 0.5;
  lint.passes = {"const-gate", "prob-bounds"};
  requests.push_back(lint);

  ServiceRequest lint_faults;
  lint_faults.verb = ServiceVerb::Lint;
  lint_faults.id = 16;
  lint_faults.netlist = "alu";
  lint_faults.faults = true;
  requests.push_back(lint_faults);

  ServiceRequest fault_bounds;
  fault_bounds.verb = ServiceVerb::FaultBounds;
  fault_bounds.id = 17;
  fault_bounds.netlist = "alu";
  fault_bounds.p = 0.25;
  requests.push_back(fault_bounds);

  for (const ServiceRequest& req : requests) {
    const std::string wire = req.to_json(0);
    const ServiceRequest decoded = ServiceRequest::from_json(wire);
    // Encode(decode(encode(x))) == encode(x): the canonical form is a
    // fixed point, which pins both directions of the codec at once.
    EXPECT_EQ(decoded.to_json(0), wire) << wire;
    // And the indented rendering decodes to the same canonical form.
    EXPECT_EQ(ServiceRequest::from_json(req.to_json(2)).to_json(0), wire);
  }
}

TEST(ServiceProtocol, ResponseRoundTrips) {
  ServiceRequest req;
  req.verb = ServiceVerb::Analyze;
  req.id = 42;

  for (const char* payload :
       {"{\"engine\":\"protest\",\"p\":[0.5,0.125]}", ""}) {
    const ServiceResponse ok = ServiceResponse::success(req, payload);
    const std::string wire = ok.to_json(0);
    const ServiceResponse decoded = ServiceResponse::from_json(wire);
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.id, 42u);
    EXPECT_EQ(decoded.verb, "analyze");
    EXPECT_EQ(decoded.result_json, payload);
    EXPECT_EQ(decoded.to_json(0), wire);
  }

  const ServiceResponse err = ServiceResponse::failure(
      7, "analyze", "unknown_netlist", "no netlist registered under 'x'");
  const ServiceResponse decoded = ServiceResponse::from_json(err.to_json(0));
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error_code, "unknown_netlist");
  EXPECT_EQ(decoded.error_message, "no netlist registered under 'x'");
  EXPECT_EQ(decoded.to_json(0), err.to_json(0));
}

// --- malformed requests: structured errors, never a crash -------------------

TEST(ServiceProtocol, MalformedRequestsYieldStructuredErrors) {
  ProtestService service;
  const struct {
    const char* line;
    const char* code;
  } cases[] = {
      {"this is not json", "bad_request"},
      {"{\"verb\":\"analyze\",\"id\":1,", "bad_request"},    // truncated
      {"[1,2,3]", "bad_request"},                            // not an object
      {"{\"id\":1}", "bad_request"},                         // missing verb
      {"{\"verb\":\"frobnicate\",\"id\":1}", "unknown_verb"},
      {"{\"verb\":\"analyze\",\"id\":\"seven\"}", "bad_request"},  // bad type
      {"{\"verb\":\"analyze\",\"id\":1,\"input_probs\":[0.5,\"x\"]}",
       "bad_request"},
      {"{\"verb\":\"analyze\",\"id\":1,\"wibble\":true}", "bad_request"},
      {"{\"verb\":\"analyze\",\"id\":1,\"artifacts\":[\"wibble\"]}",
       "bad_request"},
      {"{\"verb\":\"analyze\",\"id\":1}", "bad_request"},  // missing netlist
      {"{\"verb\":\"analyze\",\"id\":1,\"netlist\":\"ghost\"}",
       "unknown_netlist"},
      {"{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"x\"}",
       "bad_request"},  // neither circuit nor source
      {"{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"x\","
       "\"circuit\":\"no-such-circuit\"}",
       "bad_request"},
      {"{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"x\","
       "\"circuit\":\"c17\",\"engine\":\"no-such-engine\"}",
       "bad_request"},
  };
  for (const auto& c : cases) {
    const std::string out = service.handle_line(c.line);
    const ServiceResponse resp = ServiceResponse::from_json(out);
    EXPECT_FALSE(resp.ok) << c.line;
    EXPECT_EQ(resp.error_code, c.code) << c.line << " -> " << out;
  }
  // The id is echoed even when the request cannot be fully decoded.
  const ServiceResponse resp = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"frobnicate\",\"id\":33}"));
  EXPECT_EQ(resp.id, 33u);
  EXPECT_EQ(resp.verb, "frobnicate");
}

TEST(ServiceProtocol, MalformedIdEchoesZeroWithBadRequest) {
  // A request whose id is not a non-negative integer must answer with
  // id:0 and a bad_request error — never a partially-converted value —
  // while still echoing the verb.
  ProtestService service;
  const struct {
    const char* line;
    const char* verb;
  } cases[] = {
      {"{\"verb\":\"analyze\",\"id\":-3,\"netlist\":\"x\"}", "analyze"},
      {"{\"verb\":\"analyze\",\"id\":2.5,\"netlist\":\"x\"}", "analyze"},
      {"{\"verb\":\"stats\",\"id\":1e300}", "stats"},
      {"{\"verb\":\"stats\",\"id\":\"7\"}", "stats"},
      {"{\"verb\":\"stats\",\"id\":18446744073709551615}", "stats"},
      {"{\"verb\":\"stats\",\"id\":true}", "stats"},
      {"{\"id\":-1,\"verb\":\"stats\"}", "stats"},  // id decoded before verb
  };
  for (const auto& c : cases) {
    const ServiceResponse resp =
        ServiceResponse::from_json(service.handle_line(c.line));
    EXPECT_FALSE(resp.ok) << c.line;
    EXPECT_EQ(resp.error_code, "bad_request") << c.line;
    EXPECT_EQ(resp.id, 0u) << c.line;
    EXPECT_EQ(resp.verb, c.verb) << c.line;
  }
}

TEST(ServiceProtocol, MalformedBudgetsAnswerBadRequestWithVerbEcho) {
  // timeout_ms and deadline_ms ride the same guarded integer conversion
  // as request ids: negative, fractional, string, or beyond-2^53 budgets
  // are bad_request — never truncated or wrapped into a surprise
  // deadline — and the verb is still echoed for correlation.
  ProtestService service;
  const struct {
    const char* line;
    const char* verb;
  } cases[] = {
      {"{\"verb\":\"wait\",\"id\":1,\"job\":1,\"timeout_ms\":-1}", "wait"},
      {"{\"verb\":\"wait\",\"id\":2,\"job\":1,\"timeout_ms\":2.5}", "wait"},
      {"{\"verb\":\"wait\",\"id\":3,\"job\":1,\"timeout_ms\":\"100\"}",
       "wait"},
      {"{\"verb\":\"wait\",\"id\":4,\"job\":1,\"timeout_ms\":1e300}", "wait"},
      {"{\"verb\":\"wait\",\"id\":5,\"job\":1,\"timeout_ms\":true}", "wait"},
      {"{\"verb\":\"analyze\",\"id\":6,\"netlist\":\"x\",\"deadline_ms\":-5}",
       "analyze"},
      {"{\"verb\":\"analyze\",\"id\":7,\"netlist\":\"x\",\"deadline_ms\":0.5}",
       "analyze"},
      {"{\"verb\":\"analyze\",\"id\":8,\"netlist\":\"x\","
       "\"deadline_ms\":\"50\"}",
       "analyze"},
      {"{\"verb\":\"analyze\",\"id\":9,\"netlist\":\"x\","
       "\"deadline_ms\":18446744073709551615}",
       "analyze"},
      {"{\"verb\":\"optimize\",\"id\":10,\"netlist\":\"x\","
       "\"deadline_ms\":[50]}",
       "optimize"},
  };
  std::uint64_t expected_id = 1;
  for (const auto& c : cases) {
    const ServiceResponse resp =
        ServiceResponse::from_json(service.handle_line(c.line));
    EXPECT_FALSE(resp.ok) << c.line;
    EXPECT_EQ(resp.error_code, "bad_request") << c.line;
    // The (valid) id converts before the budget fails, so it echoes.
    EXPECT_EQ(resp.id, expected_id++) << c.line;
    EXPECT_EQ(resp.verb, c.verb) << c.line;
  }
}

TEST(ServiceDeadline, ExpiredBudgetAnswersDeadlineExceeded) {
  // A deadline_ms the work cannot meet answers a structured
  // deadline_exceeded error at the engine's next cancellation
  // checkpoint — the session stays resident and serves the next request.
  ProtestService service;
  ASSERT_TRUE(ServiceResponse::from_json(service.handle_line(
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"mc\","
                  "\"circuit\":\"stress100k\",\"engine\":\"monte-carlo\","
                  "\"patterns\":2000000}"))
                  .ok);
  const ServiceResponse late = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"mc\",\"p\":0.5,"
      "\"deadline_ms\":1}"));
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.error_code, "deadline_exceeded");
  EXPECT_EQ(late.id, 2u);
  EXPECT_EQ(late.verb, "analyze");
  EXPECT_NE(late.error_message.find("deadline"), std::string::npos);
  // A generous budget on the same request sails through.
  const ServiceResponse fine = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"stats\",\"id\":3,\"deadline_ms\":60000}"));
  EXPECT_TRUE(fine.ok) << fine.error_message;
}

TEST(ServiceProtocol, OutOfRangeValuesYieldErrorsNotCrashes) {
  ProtestService service;
  service.handle_line(
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c\","
      "\"circuit\":\"c17\"}");
  // Probability outside [0,1], tuple arity mismatch, perturb index out of
  // range: all structured failures.
  for (const char* line :
       {"{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c\",\"p\":1.5}",
        "{\"verb\":\"analyze\",\"id\":3,\"netlist\":\"c\","
        "\"input_probs\":[0.5]}",
        "{\"verb\":\"perturb\",\"id\":4,\"netlist\":\"c\",\"p\":0.5,"
        "\"input_index\":99,\"new_p\":0.5}",
        "{\"verb\":\"perturb\",\"id\":5,\"netlist\":\"c\",\"p\":0.5,"
        "\"input_index\":0,\"new_p\":-2}"}) {
    const ServiceResponse resp =
        ServiceResponse::from_json(service.handle_line(line));
    EXPECT_FALSE(resp.ok) << line;
    EXPECT_EQ(resp.error_code, "bad_request") << line;
  }
}

TEST(ServiceProtocol, SweepsBeyondUnsignedIsABadRequest) {
  // Checked before narrowing: 2^32 sweeps must not run as 0, nor 2^32+1
  // as 1.
  ProtestService service;
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line(R"({"verb":"load_netlist","id":1,)"
                                      R"("netlist":"n","circuit":"c17"})"))
                  .ok);
  for (const char* sweeps : {"4294967296", "4294967297"}) {
    const ServiceResponse resp = ServiceResponse::from_json(service.handle_line(
        std::string(R"({"verb":"optimize","id":2,"netlist":"n","sweeps":)") +
        sweeps + "}"));
    EXPECT_FALSE(resp.ok) << sweeps;
    EXPECT_EQ(resp.error_code, "bad_request") << sweeps;
    EXPECT_NE(resp.error_message.find("sweeps"), std::string::npos)
        << resp.error_message;
  }
  const ServiceRequest widest = ServiceRequest::from_json(
      R"({"verb":"optimize","id":3,"netlist":"n","sweeps":4294967295})");
  EXPECT_EQ(widest.sweeps, 4294967295u);
}

// --- the registry -----------------------------------------------------------

TEST(SessionRegistry, CapEvictsLeastRecentlyUsed) {
  SessionRegistry registry(/*max_resident=*/2, with_threads(1));
  for (const char* name : {"a", "b", "c"})
    registry.register_netlist(name, make_circuit("c17"));

  registry.open("a");
  registry.open("b");
  EXPECT_EQ(registry.num_resident(), 2u);
  EXPECT_EQ(registry.resident_names(), (std::vector<std::string>{"b", "a"}));

  // Touch a so b becomes the LRU victim when c arrives.
  registry.open("a");
  registry.open("c");
  EXPECT_EQ(registry.num_resident(), 2u);
  EXPECT_EQ(registry.resident_names(), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(registry.find_resident("b"), nullptr);

  // b revives from its registration (cold caches, same name), evicting a.
  EXPECT_NE(registry.open("b"), nullptr);
  EXPECT_EQ(registry.resident_names(), (std::vector<std::string>{"b", "c"}));

  // All three names stay registered throughout.
  EXPECT_EQ(registry.registered_names(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SessionRegistry, EvictionNeverInvalidatesLeasedSessions) {
  SessionRegistry registry(1, with_threads(1));
  registry.register_netlist("x", make_circuit("c17"));
  const std::shared_ptr<AnalysisSession> leased = registry.open("x");
  const AnalysisResult before =
      leased->analyze(uniform_input_probs(leased->netlist(), 0.5));

  EXPECT_TRUE(registry.evict("x"));
  EXPECT_FALSE(registry.evict("x"));  // already gone
  EXPECT_EQ(registry.find_resident("x"), nullptr);

  // The lease co-owns the resident state: still queryable after eviction.
  const AnalysisResult after =
      leased->analyze(uniform_input_probs(leased->netlist(), 0.5));
  EXPECT_EQ(before.signal_probs(), after.signal_probs());

  // Reopening builds a FRESH session (cold stats) on the same name.
  const std::shared_ptr<AnalysisSession> revived = registry.open("x");
  EXPECT_EQ(revived->stats().analyze_calls, 0u);
  EXPECT_NE(revived.get(), leased.get());
}

TEST(SessionRegistry, UnknownNamesAndUnregister) {
  SessionRegistry registry(0, with_threads(1));  // 0 = unbounded
  EXPECT_THROW(registry.open("ghost"), ServiceError);
  registry.register_netlist("x", make_circuit("c17"));
  registry.open("x");
  EXPECT_TRUE(registry.unregister("x"));
  EXPECT_FALSE(registry.unregister("x"));
  EXPECT_THROW(registry.open("x"), ServiceError);
}

TEST(SessionRegistry, ResidentSessionsShareOneExecutor) {
  SessionRegistry registry(4, with_threads(2));
  registry.register_netlist("a", make_circuit("c17"));
  registry.register_netlist("b", make_circuit("c17"));
  const std::shared_ptr<AnalysisSession> a = registry.open("a");
  const std::shared_ptr<AnalysisSession> b = registry.open("b");
  ASSERT_NE(registry.executor(), nullptr);
  EXPECT_EQ(registry.executor()->num_workers(), 2u);
  EXPECT_EQ(a->options().parallel.executor, registry.executor());
  EXPECT_EQ(b->options().parallel.executor, registry.executor());
}

TEST(SessionRegistry, RevivalSharesTheRegisteredNetlist) {
  SessionRegistry registry(1, with_threads(1));
  registry.register_netlist("x", make_circuit("c17"));
  const Netlist* const registered = &registry.open("x")->netlist();

  // Evicted by a second name, then revived: a new session on the same
  // Netlist object, not on a copy of it.
  registry.register_netlist("y", make_circuit("alu"));
  registry.open("y");
  ASSERT_EQ(registry.find_resident("x"), nullptr);
  const std::shared_ptr<AnalysisSession> revived = registry.open("x");
  EXPECT_EQ(&revived->netlist(), registered);
  EXPECT_TRUE(registry.evict("x"));
  EXPECT_EQ(&registry.open("x")->netlist(), registered);

  // Replacing the registration leaves a lease taken before it on the old
  // netlist, still queryable; the name now opens the new one.
  const std::shared_ptr<AnalysisSession> old_lease = registry.open("x");
  registry.register_netlist("x", make_circuit("alu"));
  EXPECT_EQ(&old_lease->netlist(), registered);
  EXPECT_EQ(old_lease->netlist().inputs().size(), 5u);
  const AnalysisResult r =
      old_lease->analyze(uniform_input_probs(old_lease->netlist(), 0.5));
  EXPECT_EQ(r.signal_probs().size(), old_lease->netlist().size());
  const std::shared_ptr<AnalysisSession> replaced = registry.open("x");
  EXPECT_NE(&replaced->netlist(), registered);
  EXPECT_EQ(replaced->netlist().inputs().size(), 14u);
}

// --- the acceptance conversation --------------------------------------------

TEST(ServeNdjson, ConversationMatchesDirectSessionByteForByte) {
  // Direct equivalent of the scripted conversation below.
  const Netlist net = make_circuit("alu");
  AnalysisSession direct(net);
  const AnalysisResult base =
      direct.analyze(uniform_input_probs(net, 0.5), AnalysisRequest{});
  const AnalysisResult perturbed = direct.perturb(base, 0, 0.25);

  std::istringstream in(
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"alu\","
      "\"circuit\":\"alu\"}\n"
      "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"alu\",\"p\":0.5}\n"
      "{\"verb\":\"perturb\",\"id\":3,\"netlist\":\"alu\",\"p\":0.5,"
      "\"input_index\":0,\"new_p\":0.25}\n"
      "{\"verb\":\"stats\",\"id\":4,\"netlist\":\"alu\"}\n"
      "{\"verb\":\"evict\",\"id\":5,\"netlist\":\"alu\"}\n"
      "{\"verb\":\"shutdown\",\"id\":6}\n"
      "{\"verb\":\"stats\",\"id\":7}\n");  // after shutdown: unanswered
  std::ostringstream out;
  ProtestService service;
  EXPECT_EQ(serve_ndjson(service, in, out), 0);

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 6u);  // the post-shutdown request was not served

  // The analyze/perturb payloads embed the direct results byte for byte.
  EXPECT_NE(lines[1].find("\"result\":" + base.to_json(0)),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"result\":" + perturbed.to_json(0)),
            std::string::npos);

  // The stats verb reports the resident-session counters: the perturb's
  // base analyze was a cache hit and the perturbation went incremental.
  const ServiceResponse stats = ServiceResponse::from_json(lines[3]);
  ASSERT_TRUE(stats.ok);
  const JsonValue doc = parse_json(stats.result_json);
  EXPECT_TRUE(doc.at("resident").as_bool());
  EXPECT_EQ(doc.at("stats").at("analyze_calls").as_number(), 2.0);
  EXPECT_EQ(doc.at("stats").at("cache_hits").as_number(), 1.0);
  EXPECT_EQ(doc.at("stats").at("incremental_evals").as_number(), 1.0);
  EXPECT_GE(doc.at("stats").at("resident_results").as_number(), 2.0);

  for (const std::size_t i : {std::size_t{4}, std::size_t{5}})
    EXPECT_TRUE(ServiceResponse::from_json(lines[i]).ok) << lines[i];
  EXPECT_TRUE(service.shutdown_requested());
}

// --- lint verb and strict loads ---------------------------------------------

TEST(ServiceLint, StrictLoadRejectsProvablyStuckOutput) {
  ProtestService service;
  const std::string source =
      "module top(a -> z) { c = CONST0()  z = AND(a, c) }\\ncircuit top";
  const ServiceResponse rejected = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"load_netlist\",\"id\":1,"
                          "\"netlist\":\"bad\",\"strict\":true,\"source\":\"" +
                          source + "\"}"));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error_code, "lint_failed");
  EXPECT_NE(rejected.error_message.find("stuck at 0"), std::string::npos)
      << rejected.error_message;

  // Non-strict load of the same netlist is admitted; the lint verb then
  // reports the same defect instead of blocking residency.
  const ServiceResponse loaded = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"load_netlist\",\"id\":2,"
                          "\"netlist\":\"bad\",\"source\":\"" +
                          source + "\"}"));
  ASSERT_TRUE(loaded.ok) << loaded.error_message;
  const ServiceResponse linted = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"lint\",\"id\":3,\"netlist\":\"bad\"}"));
  ASSERT_TRUE(linted.ok) << linted.error_message;
  const JsonValue report = parse_json(linted.result_json).at("report");
  EXPECT_EQ(report.at("summary").at("errors").as_number(), 1.0);
  EXPECT_EQ(report.at("summary").at("clean").as_bool(), false);
}

TEST(ServiceLint, StrictLoadAdmitsCleanNetlistAndStatsCountRuns) {
  ProtestService service;
  const ServiceResponse loaded = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"load_netlist\",\"id\":1,"
                          "\"netlist\":\"alu\",\"circuit\":\"alu\","
                          "\"strict\":true}"));
  ASSERT_TRUE(loaded.ok) << loaded.error_message;
  const JsonValue load_doc = parse_json(loaded.result_json);
  EXPECT_EQ(load_doc.at("lint").at("errors").as_number(), 0.0);

  const ServiceResponse linted = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"lint\",\"id\":2,\"netlist\":\"alu\","
      "\"passes\":[\"const-gate\",\"structure\"]}"));
  ASSERT_TRUE(linted.ok) << linted.error_message;
  const JsonValue report = parse_json(linted.result_json).at("report");
  EXPECT_EQ(report.at("passes").as_array().size(), 2u);

  const ServiceResponse stats = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"stats\",\"id\":3,\"netlist\":\"alu\"}"));
  ASSERT_TRUE(stats.ok);
  const JsonValue doc = parse_json(stats.result_json);
  EXPECT_EQ(doc.at("stats").at("lint").at("runs").as_number(), 2.0);
}

TEST(ServiceFaultBounds, VerbReportsSummaryAndPerFaultIntervals) {
  ProtestService service;
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line("{\"verb\":\"load_netlist\",\"id\":1,"
                                      "\"netlist\":\"c17\",\"circuit\":\"c17\"}"))
                  .ok);
  const ServiceResponse r = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"fault_bounds\",\"id\":2,\"netlist\":\"c17\"}"));
  ASSERT_TRUE(r.ok) << r.error_message;
  const JsonValue doc = parse_json(r.result_json);
  const JsonValue& summary = doc.at("summary");
  const double total = summary.at("faults").as_number();
  EXPECT_GT(total, 0.0);
  // c17 is irredundant; the counts partition the fault list.
  EXPECT_EQ(summary.at("proven_undetectable").as_number(), 0.0);
  EXPECT_EQ(summary.at("proven_detectable").as_number() +
                summary.at("uncertain").as_number(),
            total);
  EXPECT_GT(summary.at("settled_fraction").as_number(), 0.0);
  const auto& faults = doc.at("faults").as_array();
  ASSERT_EQ(static_cast<double>(faults.size()), total);
  for (const JsonValue& f : faults) {
    EXPECT_LE(f.at("lo").as_number(), f.at("hi").as_number());
    EXPECT_FALSE(f.at("fault").as_string().empty());
    EXPECT_FALSE(f.at("verdict").as_string().empty());
  }
  // Unnamed netlists answer unknown_netlist like every session verb.
  const ServiceResponse missing = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"fault_bounds\",\"id\":3,\"netlist\":\"nope\"}"));
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.error_code, "unknown_netlist");
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string load_line_for(const char* circuit) {
  return std::string(
             R"({"verb":"load_netlist","id":1,"netlist":"n","circuit":")") +
         circuit + "\"}";
}

constexpr const char* kFaultBoundsLine =
    R"({"verb":"fault_bounds","id":2,"netlist":"n","p":0.5})";

/// A service whose shared executor has `threads` workers.
ServiceConfig service_with_threads(unsigned threads) {
  ServiceConfig cfg;
  cfg.parallel = with_threads(threads);
  return cfg;
}

// The served fault_bounds line after a fresh load, pinned byte for byte
// (FNV-1a 64 over the whole response line, recorded from the serial
// heap-driven kernel).  The sweep and the fault list's serialization fan
// out across the service's executor; at 1, 2 and 4 workers the bytes must
// not notice.
TEST(ServiceFaultBounds, ResponseLinesArePinned) {
  struct Pin {
    const char* circuit;
    std::size_t bytes;
    std::uint64_t hash;
  };
  const Pin pins[] = {{"alu", 33'123, 0xb25d5e0ac0408c34ull},
                      {"mult", 251'272, 0x796b07b3f634345bull},
                      {"div", 259'464, 0x356ad33a0aea7567ull}};
  for (const unsigned threads : {1u, 2u, 4u})
    for (const Pin& p : pins) {
      const std::string what =
          std::string(p.circuit) + " at " + std::to_string(threads);
      ProtestService service(service_with_threads(threads));
      const std::string load = service.handle_line(load_line_for(p.circuit));
      ASSERT_TRUE(ServiceResponse::from_json(load).ok) << load;
      const std::string line = service.handle_line(kFaultBoundsLine);
      EXPECT_EQ(line.size(), p.bytes) << what;
      EXPECT_EQ(fnv1a64(line), p.hash) << what;
    }
}

// The served analyze and perturb lines, pinned byte for byte like the
// fault_bounds line above (recorded before cached results stopped keeping
// their observability and detection views).  One conversation per circuit:
// a fresh analyze, a cache hit asking for fault bounds and test lengths, an
// exact and a screen perturb of the cached tuple, and the first analyze
// again once no handle of it is left, which must rebuild the same bytes.
// A second service asks for fault bounds and test lengths on a miss.
// Every conversation runs at 1, 2 and 4 workers: div's arrays span
// several serialization chunks.
TEST(ServiceAnalyze, ResponseLinesArePinned) {
  constexpr const char* kAnalyze =
      R"({"verb":"analyze","id":2,"netlist":"n","p":0.5})";
  constexpr const char* kBoundsLengths =
      R"({"verb":"analyze","id":3,"netlist":"n","p":0.5,)"
      R"("artifacts":["fault_bounds","test_lengths"]})";
  constexpr const char* kPerturb =
      R"({"verb":"perturb","id":4,"netlist":"n","p":0.5,)"
      R"("input_index":3,"new_p":0.25})";
  constexpr const char* kScreen =
      R"({"verb":"perturb","id":5,"netlist":"n","p":0.5,)"
      R"("input_index":5,"new_p":0.875,"screen":true})";
  struct Line {
    std::size_t bytes;
    std::uint64_t hash;
  };
  struct Pin {
    const char* circuit;
    Line analyze, bounds_lengths, perturb, screen;
  };
  const Pin pins[] = {
      {"alu",
       {35'424, 0x89109e4958314eb8ull},
       {36'762, 0xb41a0b1b7d2f8e54ull},
       {35'414, 0x39493ff3e3213049ull},
       {35'452, 0x4a7c92e349d45f43ull}},
      {"div",
       {718'217, 0xd9178acda508d5c6ull},
       {708'640, 0xba38bc5c6289184dull},
       {718'421, 0x21909433271f5fddull},
       {718'556, 0x784411aadf315023ull}}};
  auto expect_pinned = [](const std::string& line, const Line& pin,
                          const std::string& what) {
    EXPECT_EQ(line.size(), pin.bytes) << what;
    EXPECT_EQ(fnv1a64(line), pin.hash) << what;
  };
  for (const unsigned threads : {1u, 2u, 4u})
    for (const Pin& p : pins) {
      const std::string c =
          std::string(p.circuit) + " at " + std::to_string(threads);
      ProtestService service(service_with_threads(threads));
      ASSERT_TRUE(ServiceResponse::from_json(
                      service.handle_line(load_line_for(p.circuit)))
                      .ok);
      const std::string analyze = service.handle_line(kAnalyze);
      expect_pinned(analyze, p.analyze, c + " analyze");
      expect_pinned(service.handle_line(kBoundsLengths), p.bounds_lengths,
                    c + " fault_bounds+test_lengths hit");
      expect_pinned(service.handle_line(kPerturb), p.perturb, c + " perturb");
      expect_pinned(service.handle_line(kScreen), p.screen, c + " screen");
      EXPECT_EQ(service.handle_line(kAnalyze), analyze) << c << " repeat";

      ProtestService fresh(service_with_threads(threads));
      ASSERT_TRUE(ServiceResponse::from_json(
                      fresh.handle_line(load_line_for(p.circuit)))
                      .ok);
      expect_pinned(fresh.handle_line(kBoundsLengths), p.bounds_lengths,
                    c + " fault_bounds+test_lengths miss");
    }
}

// The served optimize line on alu, pinned like the lines above (recorded
// before the verb and the CLI's optimize shared one climb entry point).
TEST(ServiceOptimize, ResponseLineIsPinned) {
  constexpr const char* kOptimize =
      R"({"verb":"optimize","id":2,"netlist":"n","sweeps":1})";
  for (const unsigned threads : {1u, 4u}) {
    ProtestService service(service_with_threads(threads));
    ASSERT_TRUE(ServiceResponse::from_json(
                    service.handle_line(load_line_for("alu")))
                    .ok);
    const std::string line = service.handle_line(kOptimize);
    EXPECT_EQ(line.size(), 505u) << threads;
    EXPECT_EQ(fnv1a64(line), 0x2668eb4e217cdbe9ull) << threads;
  }
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

// alu's arrays each fit one serialization chunk and its 536 faults one
// sweep task, so a default-thread service answers every verb of an alu
// conversation on the calling thread: the executor's pool never starts.
// A pool started here would cost each small request a worker wake-up.
TEST(ServiceThreads, AluConversationNeverStartsTheWorkerPool) {
  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  ProtestService service;
  const std::string lines[] = {
      load_line_for("alu"),
      R"({"verb":"analyze","id":2,"netlist":"n","p":0.5})",
      R"({"verb":"perturb","id":3,"netlist":"n","p":0.5,)"
      R"("input_index":3,"new_p":0.25})",
      R"({"verb":"perturb","id":4,"netlist":"n","p":0.5,)"
      R"("input_index":5,"new_p":0.875,"screen":true})",
      kFaultBoundsLine,
      R"({"verb":"lint","id":6,"netlist":"n"})",
      R"({"verb":"stats","id":7,"netlist":"n"})"};
  for (const std::string& line : lines) {
    const std::string response = service.handle_line(line);
    EXPECT_TRUE(ServiceResponse::from_json(response).ok) << response;
  }
  EXPECT_EQ(process_threads(), before);
}

TEST(ServiceFaultBounds, DeadlineStopsTheSweepAndMemoizesNothing) {
  // Building div's fault context alone outlasts a 1 ms budget, so the
  // sweep's first task boundary answers deadline_exceeded; the same
  // request without a deadline then computes the pinned line.
  ProtestService service;
  ASSERT_TRUE(
      ServiceResponse::from_json(service.handle_line(load_line_for("div"))).ok);
  const ServiceResponse late = ServiceResponse::from_json(
      service.handle_line(R"({"verb":"fault_bounds","id":2,"netlist":"n",)"
                          R"("p":0.5,"deadline_ms":1})"));
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.error_code, "deadline_exceeded");
  EXPECT_EQ(late.verb, "fault_bounds");
  const std::string line = service.handle_line(kFaultBoundsLine);
  EXPECT_EQ(line.size(), 259'464u);
  EXPECT_EQ(fnv1a64(line), 0x356ad33a0aea7567ull);
}

TEST(ServiceLint, FaultsFlagAddsFaultPasses) {
  ProtestService service;
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line("{\"verb\":\"load_netlist\",\"id\":1,"
                                      "\"netlist\":\"c17\",\"circuit\":\"c17\"}"))
                  .ok);
  const ServiceResponse r = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"lint\",\"id\":2,\"netlist\":\"c17\",\"faults\":true}"));
  ASSERT_TRUE(r.ok) << r.error_message;
  const JsonValue report = parse_json(r.result_json).at("report");
  bool saw = false;
  for (const JsonValue& p : report.at("passes").as_array())
    saw = saw || p.as_string() == "redundant-fault";
  EXPECT_TRUE(saw);
}

TEST(ServiceLint, UnknownPassIsABadRequest) {
  ProtestService service;
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line("{\"verb\":\"load_netlist\",\"id\":1,"
                                      "\"netlist\":\"alu\",\"circuit\":\"alu\"}"))
                  .ok);
  const ServiceResponse r = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"lint\",\"id\":2,\"netlist\":\"alu\","
      "\"passes\":[\"bogus\"]}"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, "bad_request");
  EXPECT_NE(r.error_message.find("bogus"), std::string::npos);
  // A strict load lints with the same pass list, so an unknown pass there
  // is the same bad_request, and nothing is registered.
  const ServiceResponse strict = ServiceResponse::from_json(service.handle_line(
      "{\"verb\":\"load_netlist\",\"id\":3,\"netlist\":\"s\","
      "\"circuit\":\"c17\",\"strict\":true,\"passes\":[\"bogus\"]}"));
  EXPECT_FALSE(strict.ok);
  EXPECT_EQ(strict.error_code, "bad_request");
  EXPECT_NE(strict.error_message.find("bogus"), std::string::npos);
  EXPECT_EQ(service.registry().registered_names(),
            std::vector<std::string>{"alu"});
}

// --- async job verbs --------------------------------------------------------

TEST(AsyncVerbs, WaitAndPollEmbedTheSynchronousResponseByteForByte) {
  ProtestService service;
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line(
                      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c\","
                      "\"circuit\":\"c17\"}"))
                  .ok);

  // The synchronous answer is the reference; the async ticket must hand
  // back the exact same ServiceResponse bytes under "response".
  const std::string inner =
      "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c\",\"p\":0.5}";
  const std::string sync = service.handle_line(inner);

  const ServiceResponse submit = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"submit\",\"id\":3,\"request\":" +
                          inner + "}"));
  ASSERT_TRUE(submit.ok);
  const JsonValue ticket = parse_json(submit.result_json);
  EXPECT_EQ(ticket.at("verb").as_string(), "analyze");
  EXPECT_EQ(ticket.at("state").as_string(), "queued");
  const std::string job = std::to_string(
      static_cast<std::uint64_t>(ticket.at("job").as_number()));

  const ServiceResponse waited = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"wait\",\"id\":4,\"job\":" + job + "}"));
  ASSERT_TRUE(waited.ok);
  EXPECT_NE(waited.result_json.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(waited.result_json.find("\"response\":" + sync),
            std::string::npos)
      << waited.result_json;

  // poll() after completion returns the identical payload, repeatedly.
  const ServiceResponse polled = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"poll\",\"id\":5,\"job\":" + job + "}"));
  ASSERT_TRUE(polled.ok);
  EXPECT_EQ(polled.result_json, waited.result_json);

  // The jobs listing shows the finished ticket (payloads omitted).
  const ServiceResponse listing = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"jobs\",\"id\":6}"));
  ASSERT_TRUE(listing.ok);
  const JsonValue jobs_doc = parse_json(listing.result_json);
  ASSERT_EQ(jobs_doc.at("jobs").as_array().size(), 1u);
  EXPECT_EQ(jobs_doc.at("jobs").as_array()[0].at("state").as_string(),
            "done");
}

TEST(AsyncVerbs, SubmittedFailuresEmbedTheErrorResponse) {
  // A submitted verb that FAILS (unknown netlist) still completes as a
  // done job whose embedded response is the synchronous error response —
  // protocol failures are results, not job crashes.
  ProtestService service;
  const std::string inner =
      "{\"verb\":\"analyze\",\"id\":7,\"netlist\":\"ghost\"}";
  const std::string sync = service.handle_line(inner);
  const ServiceResponse submit = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"submit\",\"id\":8,\"request\":" +
                          inner + "}"));
  ASSERT_TRUE(submit.ok);
  const std::string job = std::to_string(static_cast<std::uint64_t>(
      parse_json(submit.result_json).at("job").as_number()));
  const ServiceResponse waited = ServiceResponse::from_json(
      service.handle_line("{\"verb\":\"wait\",\"id\":9,\"job\":" + job + "}"));
  ASSERT_TRUE(waited.ok);
  EXPECT_NE(waited.result_json.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(waited.result_json.find("\"response\":" + sync),
            std::string::npos);
  EXPECT_NE(waited.result_json.find("unknown_netlist"), std::string::npos);
}

TEST(AsyncVerbs, JobControlErrorsAreStructured) {
  ProtestService service;
  const struct {
    const char* line;
    const char* code;
  } cases[] = {
      // poll/wait/cancel of a ticket that was never issued
      {"{\"verb\":\"poll\",\"id\":1,\"job\":42}", "unknown_job"},
      {"{\"verb\":\"wait\",\"id\":2,\"job\":42}", "unknown_job"},
      {"{\"verb\":\"cancel\",\"id\":3,\"job\":42}", "unknown_job"},
      // missing members
      {"{\"verb\":\"poll\",\"id\":4}", "bad_request"},
      {"{\"verb\":\"submit\",\"id\":5}", "bad_request"},
      // only the work verbs analyze/perturb/optimize are submittable
      {"{\"verb\":\"submit\",\"id\":6,\"request\":{\"verb\":\"shutdown\"}}",
       "bad_request"},
      {"{\"verb\":\"submit\",\"id\":7,\"request\":{\"verb\":\"submit\"}}",
       "bad_request"},
      {"{\"verb\":\"submit\",\"id\":8,\"request\":{\"verb\":\"wait\","
       "\"job\":1}}",
       "bad_request"},
      {"{\"verb\":\"submit\",\"id\":11,\"request\":{\"verb\":\"load_netlist\","
       "\"netlist\":\"x\",\"circuit\":\"c17\"}}",
       "bad_request"},
      {"{\"verb\":\"submit\",\"id\":12,\"request\":{\"verb\":\"evict\","
       "\"netlist\":\"x\"}}",
       "bad_request"},
      // a malformed wrapped request surfaces at decode time
      {"{\"verb\":\"submit\",\"id\":9,\"request\":{\"wibble\":1}}",
       "bad_request"},
      {"{\"verb\":\"submit\",\"id\":10,\"request\":7}", "bad_request"},
  };
  for (const auto& c : cases) {
    const ServiceResponse resp =
        ServiceResponse::from_json(service.handle_line(c.line));
    EXPECT_FALSE(resp.ok) << c.line;
    EXPECT_EQ(resp.error_code, c.code) << c.line << " -> "
                                       << service.handle_line(c.line);
  }
}

TEST(VerbTable, EveryVerbRoundTripsAndOnlyWorkVerbsAreSubmittable) {
  // Every ServiceVerb, in declaration order (Jobs is the last one).
  constexpr int kVerbCount = static_cast<int>(ServiceVerb::Jobs) + 1;
  ASSERT_EQ(verb_table().size(), static_cast<std::size_t>(kVerbCount));
  std::vector<std::string> work;
  for (int v = 0; v < kVerbCount; ++v) {
    const VerbSpec& spec = spec_of(static_cast<ServiceVerb>(v));
    if (spec.dispatch == VerbClass::Work) work.emplace_back(spec.name);
  }
  std::sort(work.begin(), work.end());

  ProtestService service;
  for (int v = 0; v < kVerbCount; ++v) {
    const auto verb = static_cast<ServiceVerb>(v);
    const VerbSpec& spec = spec_of(verb);
    EXPECT_EQ(spec.verb, verb);
    EXPECT_EQ(to_string(verb), spec.name);
    EXPECT_EQ(verb_from_string(spec.name), verb) << spec.name;
    EXPECT_EQ(find_verb(spec.name), &spec) << spec.name;

    ServiceRequest submit;
    submit.verb = ServiceVerb::Submit;
    submit.id = 1;
    submit.subrequest = std::make_shared<ServiceRequest>();
    submit.subrequest->verb = verb;
    submit.subrequest->netlist = "ghost";
    const ServiceResponse resp = service.handle(submit);
    EXPECT_EQ(resp.ok, spec.dispatch == VerbClass::Work)
        << spec.name << ": " << resp.error_message;
    if (resp.ok) continue;
    EXPECT_EQ(resp.error_code, "bad_request") << spec.name;
    // The rejection names exactly the work verbs.
    const std::string& msg = resp.error_message;
    const std::string open = "only the work verbs ";
    const std::size_t from = msg.find(open);
    const std::size_t to = msg.find(" are submittable");
    ASSERT_NE(from, std::string::npos) << msg;
    ASSERT_NE(to, std::string::npos) << msg;
    std::vector<std::string> named;
    std::istringstream list(msg.substr(from + open.size(),
                                       to - from - open.size()));
    for (std::string name; std::getline(list, name, '/');)
      named.push_back(name);
    std::sort(named.begin(), named.end());
    EXPECT_EQ(named, work) << msg;
  }
}

// --- pipelined dispatch -----------------------------------------------------

/// The workload both dispatch modes must answer identically: a load, a
/// spread of analyzes/perturbs (distinct ids), an evict (a barrier in
/// pipelined mode) with a revival analyze behind it, and a shutdown.
std::string pipelined_script() {
  return
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"alu\","
      "\"circuit\":\"alu\"}\n"
      "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"alu\",\"p\":0.5}\n"
      "{\"verb\":\"analyze\",\"id\":3,\"netlist\":\"alu\",\"p\":0.25}\n"
      "{\"verb\":\"perturb\",\"id\":4,\"netlist\":\"alu\",\"p\":0.5,"
      "\"input_index\":0,\"new_p\":0.125}\n"
      "{\"verb\":\"analyze\",\"id\":5,\"netlist\":\"alu\",\"p\":0.75}\n"
      "{\"verb\":\"perturb\",\"id\":6,\"netlist\":\"alu\",\"p\":0.5,"
      "\"input_index\":1,\"new_p\":0.875}\n"
      "{\"verb\":\"evict\",\"id\":7,\"netlist\":\"alu\"}\n"
      "{\"verb\":\"analyze\",\"id\":8,\"netlist\":\"alu\",\"p\":0.5}\n"
      "{\"verb\":\"shutdown\",\"id\":9}\n";
}

TEST(ServePipelined, OutOfOrderConversationYieldsTheSerialResponseSet) {
  // Serial reference run.
  std::istringstream serial_in(pipelined_script());
  std::ostringstream serial_out;
  ProtestService serial_service;
  EXPECT_EQ(serve_ndjson(serial_service, serial_in, serial_out), 0);
  std::vector<std::string> serial_lines = lines_of(serial_out.str());
  ASSERT_EQ(serial_lines.size(), 9u);

  // Pipelined run: up to 3 work verbs in flight, responses correlated by
  // id with UNSPECIFIED order — the response SET must match byte for
  // byte.
  std::istringstream pipe_in(pipelined_script());
  std::ostringstream pipe_out;
  ProtestService pipe_service;
  ServeOptions options;
  options.max_inflight = 3;
  EXPECT_EQ(serve_ndjson(pipe_service, pipe_in, pipe_out, options), 0);
  std::vector<std::string> pipe_lines = lines_of(pipe_out.str());
  ASSERT_EQ(pipe_lines.size(), 9u);
  EXPECT_TRUE(pipe_service.shutdown_requested());

  std::sort(serial_lines.begin(), serial_lines.end());
  std::sort(pipe_lines.begin(), pipe_lines.end());
  EXPECT_EQ(serial_lines, pipe_lines);
}

TEST(ServePipelined, TicketConversationInterleavesWithWorkVerbs) {
  // submit/poll/wait are INLINE in pipelined mode (deterministic order),
  // so a ticketed long job rides alongside out-of-order work verbs.
  const std::string script =
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c\","
      "\"circuit\":\"c17\"}\n"
      "{\"verb\":\"submit\",\"id\":2,\"request\":{\"verb\":\"analyze\","
      "\"id\":100,\"netlist\":\"c\",\"p\":0.5}}\n"
      "{\"verb\":\"analyze\",\"id\":3,\"netlist\":\"c\",\"p\":0.25}\n"
      "{\"verb\":\"wait\",\"id\":4,\"job\":1}\n"
      "{\"verb\":\"shutdown\",\"id\":5}\n";
  std::istringstream in(script);
  std::ostringstream out;
  ProtestService service;
  ServeOptions options;
  options.max_inflight = 2;
  EXPECT_EQ(serve_ndjson(service, in, out, options), 0);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  for (const std::string& line : lines)
    EXPECT_TRUE(ServiceResponse::from_json(line).ok) << line;

  // The waited ticket embeds the analyze response with the inner id.
  const std::string direct = service.handle_line(
      "{\"verb\":\"analyze\",\"id\":100,\"netlist\":\"c\",\"p\":0.5}");
  bool found = false;
  for (const std::string& line : lines)
    if (line.find("\"response\":" + direct) != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(ServeNdjson, BlankLinesAndCrLfAreTolerated) {
  std::istringstream in(
      "\n"
      "   \n"
      "{\"verb\":\"stats\",\"id\":1}\r\n"
      "{\"verb\":\"shutdown\",\"id\":2}\n");
  std::ostringstream out;
  ProtestService service;
  serve_ndjson(service, in, out);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(ServiceResponse::from_json(lines[0]).ok);
}

// --- concurrency ------------------------------------------------------------

TEST(ProtestService, ConcurrentMultiNetlistRequests) {
  // Several threads hammer two resident netlists through every hot verb;
  // every response must be ok and analyze payloads must equal the serial
  // answer.  Run under TSan in CI, with all sessions sharing one
  // executor.
  ServiceConfig cfg;
  cfg.parallel.num_threads = 2;
  ProtestService service(cfg);
  for (const char* name : {"c17", "mult4"}) {
    ServiceRequest load;
    load.verb = ServiceVerb::LoadNetlist;
    load.netlist = name;
    load.circuit = name;
    ASSERT_TRUE(service.handle(load).ok);
  }

  std::string expected[2];
  for (int c = 0; c < 2; ++c) {
    ServiceRequest analyze;
    analyze.verb = ServiceVerb::Analyze;
    analyze.netlist = c == 0 ? "c17" : "mult4";
    analyze.p = 0.5;
    const ServiceResponse resp = service.handle(analyze);
    ASSERT_TRUE(resp.ok);
    expected[c] = resp.result_json;
  }

  constexpr int kThreads = 4, kRounds = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const int c = (t + r) % 2;
        const std::string name = c == 0 ? "c17" : "mult4";
        ServiceRequest req;
        req.netlist = name;
        switch (r % 3) {
          case 0:
            req.verb = ServiceVerb::Analyze;
            req.p = 0.5;
            break;
          case 1:
            req.verb = ServiceVerb::Perturb;
            req.p = 0.5;
            req.input_index = 0;
            req.new_p = 0.25;
            break;
          default:
            req.verb = ServiceVerb::Stats;
            break;
        }
        const ServiceResponse resp = service.handle(req);
        if (!resp.ok) ++failures;
        if (req.verb == ServiceVerb::Analyze && resp.result_json != expected[c])
          ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- TCP front end ----------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)
}  // namespace
}  // namespace protest

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace protest {
namespace {

TEST(ServeTcp, LoopbackConversation) {
  ASSERT_TRUE(tcp_serve_supported());
  ProtestService service;
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> serve_failed{false};
  std::ostringstream log;
  std::thread server([&] {
    try {
      serve_tcp(service, 0, log, &port);
    } catch (const std::exception&) {
      serve_failed.store(true);
    }
  });
  while (port.load() == 0 && !serve_failed.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (serve_failed.load()) {
    server.join();
    GTEST_SKIP() << "loopback sockets unavailable in this environment";
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port.load());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    // Stop the server and bail out rather than hang.
    ServiceRequest shutdown;
    shutdown.verb = ServiceVerb::Shutdown;
    service.handle(shutdown);
    server.join();
    ::close(fd);
    GTEST_SKIP() << "cannot connect over loopback in this environment";
  }

  const std::string script =
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
      "\"circuit\":\"c17\"}\n"
      "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c17\",\"p\":0.5}\n"
      "{\"verb\":\"shutdown\",\"id\":3}\n";
  ASSERT_EQ(::send(fd, script.data(), script.size(), 0),
            static_cast<ssize_t>(script.size()));

  std::string received;
  char buf[4096];
  while (std::count(received.begin(), received.end(), '\n') < 3) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    received.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();

  const std::vector<std::string> lines = lines_of(received);
  ASSERT_EQ(lines.size(), 3u) << received;
  for (const std::string& line : lines)
    EXPECT_TRUE(ServiceResponse::from_json(line).ok) << line;
  EXPECT_NE(log.str().find("listening on 127.0.0.1:"), std::string::npos);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServeTcp, PipelinedLoopbackConversation) {
  // The TCP front end with --inflight: work responses may arrive out of
  // order; every request must still be answered exactly once, correlated
  // by id, before the connection winds down.
  ASSERT_TRUE(tcp_serve_supported());
  ProtestService service;
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> serve_failed{false};
  std::ostringstream log;
  ServeOptions options;
  options.max_inflight = 2;
  std::thread server([&] {
    try {
      serve_tcp(service, 0, log, &port, options);
    } catch (const std::exception&) {
      serve_failed.store(true);
    }
  });
  while (port.load() == 0 && !serve_failed.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (serve_failed.load()) {
    server.join();
    GTEST_SKIP() << "loopback sockets unavailable in this environment";
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port.load());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ServiceRequest shutdown;
    shutdown.verb = ServiceVerb::Shutdown;
    service.handle(shutdown);
    server.join();
    ::close(fd);
    GTEST_SKIP() << "cannot connect over loopback in this environment";
  }

  const std::string script =
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
      "\"circuit\":\"c17\"}\n"
      "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c17\",\"p\":0.5}\n"
      "{\"verb\":\"analyze\",\"id\":3,\"netlist\":\"c17\",\"p\":0.25}\n"
      "{\"verb\":\"perturb\",\"id\":4,\"netlist\":\"c17\",\"p\":0.5,"
      "\"input_index\":0,\"new_p\":0.75}\n"
      "{\"verb\":\"shutdown\",\"id\":5}\n";
  ASSERT_EQ(::send(fd, script.data(), script.size(), 0),
            static_cast<ssize_t>(script.size()));

  std::string received;
  char buf[4096];
  while (std::count(received.begin(), received.end(), '\n') < 5) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    received.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();

  const std::vector<std::string> lines = lines_of(received);
  ASSERT_EQ(lines.size(), 5u) << received;
  std::vector<std::uint64_t> ids;
  for (const std::string& line : lines) {
    const ServiceResponse resp = ServiceResponse::from_json(line);
    EXPECT_TRUE(resp.ok) << line;
    ids.push_back(resp.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServeTcp, EarlyDisconnectDoesNotKillTheDaemon) {
  // A client that sends requests and resets the connection without
  // reading the (large) responses must only fail ITS connection — the
  // daemon's writes into the dead socket must not raise a process-wide
  // SIGPIPE.  Without MSG_NOSIGNAL this whole test binary dies.
  ProtestService service;
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> serve_failed{false};
  std::ostringstream log;
  std::thread server([&] {
    try {
      serve_tcp(service, 0, log, &port);
    } catch (const std::exception&) {
      serve_failed.store(true);
    }
  });
  while (port.load() == 0 && !serve_failed.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (serve_failed.load()) {
    server.join();
    GTEST_SKIP() << "loopback sockets unavailable in this environment";
  }

  const auto connect_client = [&]() -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port.load());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };

  const int rude = connect_client();
  if (rude < 0) {
    ServiceRequest shutdown;
    shutdown.verb = ServiceVerb::Shutdown;
    service.handle(shutdown);
    server.join();
    GTEST_SKIP() << "cannot connect over loopback in this environment";
  }
  // SO_LINGER(0) turns close() into a hard RST, so the daemon's next
  // write into this socket fails immediately instead of buffering.
  const linger hard_reset{1, 0};
  ::setsockopt(rude, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof hard_reset);
  const std::string rude_script =
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"alu\","
      "\"circuit\":\"alu\"}\n"
      "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"alu\",\"p\":0.5}\n"
      "{\"verb\":\"analyze\",\"id\":3,\"netlist\":\"alu\",\"p\":0.25}\n";
  ::send(rude, rude_script.data(), rude_script.size(), 0);
  ::close(rude);  // never reads a byte of the ~35 KB responses

  // The daemon must still serve a well-behaved client afterwards.
  std::string received;
  for (int attempt = 0; attempt < 50 && received.empty(); ++attempt) {
    const int polite = connect_client();
    ASSERT_GE(polite, 0);
    timeval timeout{10, 0};
    ::setsockopt(polite, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    const std::string script = "{\"verb\":\"stats\",\"id\":4}\n";
    ::send(polite, script.data(), script.size(), 0);
    char buf[4096];
    const ssize_t n = ::recv(polite, buf, sizeof buf, 0);
    if (n > 0) received.assign(buf, static_cast<std::size_t>(n));
    ::close(polite);
  }
  ASSERT_FALSE(received.empty());
  EXPECT_TRUE(ServiceResponse::from_json(lines_of(received)[0]).ok)
      << received;

  ServiceRequest shutdown;
  shutdown.verb = ServiceVerb::Shutdown;
  EXPECT_TRUE(service.handle(shutdown).ok);
  server.join();
}
TEST(ServeTcp, ConnectionLossCancelsInlineWorkButKeepsTickets) {
  // A pipelined connection dropped with work in flight: the inline
  // request's cancellation token trips (no thread keeps crunching for a
  // dead socket), while the TICKETED job — owned by the service, not the
  // connection — stays pollable from a brand-new connection.  Run under
  // TSan this also proves the dropped connection leaks no threads.
  ProtestService service;
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> serve_failed{false};
  std::ostringstream log;
  ServeOptions options;
  options.max_inflight = 3;
  std::thread server([&] {
    try {
      serve_tcp(service, 0, log, &port, options);
    } catch (const std::exception&) {
      serve_failed.store(true);
    }
  });
  while (port.load() == 0 && !serve_failed.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (serve_failed.load()) {
    server.join();
    GTEST_SKIP() << "loopback sockets unavailable in this environment";
  }

  const auto connect_client = [&]() -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port.load());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) < 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  };

  // Every exit path, a failed ASSERT included, stops the daemon and joins
  // its thread: destroying a joinable std::thread would abort the suite.
  struct StopServer {
    ProtestService& service;
    std::thread& server;
    ~StopServer() {
      if (!server.joinable()) return;
      ServiceRequest shutdown;
      shutdown.verb = ServiceVerb::Shutdown;
      service.handle(shutdown);
      server.join();
    }
  } stop_server{service, server};

  const int rude = connect_client();
  if (rude < 0)
    GTEST_SKIP() << "cannot connect over loopback in this environment";
  const linger hard_reset{1, 0};
  ::setsockopt(rude, SOL_SOCKET, SO_LINGER, &hard_reset, sizeof hard_reset);
  // Fast netlist for the ticket, deliberately slow one for the inline
  // analyze that will be abandoned mid-flight.
  const std::string rude_setup =
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
      "\"circuit\":\"c17\"}\n"
      "{\"verb\":\"load_netlist\",\"id\":2,\"netlist\":\"slow\","
      "\"circuit\":\"stress100k\",\"engine\":\"monte-carlo\","
      "\"patterns\":2000000}\n"
      "{\"verb\":\"submit\",\"id\":3,\"request\":{\"verb\":\"analyze\","
      "\"id\":100,\"netlist\":\"c17\",\"p\":0.5}}\n";
  ::send(rude, rude_setup.data(), rude_setup.size(), 0);
  // Read answers 1-3 first, so the ticket exists however long the loads
  // take (a sanitizer build needs far more than a fixed sleep's worth).
  timeval rude_timeout{120, 0};
  ::setsockopt(rude, SOL_SOCKET, SO_RCVTIMEO, &rude_timeout,
               sizeof rude_timeout);
  std::string answered;
  while (std::count(answered.begin(), answered.end(), '\n') < 3) {
    char buf[4096];
    const ssize_t n = ::recv(rude, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "answers so far: " << answered;
    answered.append(buf, static_cast<std::size_t>(n));
  }
  const std::string rude_analyze =
      "{\"verb\":\"analyze\",\"id\":4,\"netlist\":\"slow\",\"p\":0.5}\n";
  ::send(rude, rude_analyze.data(), rude_analyze.size(), 0);
  // Give the slow analyze a moment to enter a dispatch slot, then reset
  // the connection under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::close(rude);

  // The ticket resolves for a NEW connection: the job belongs to the
  // service, not to the connection that submitted it.
  std::string received;
  for (int attempt = 0; attempt < 50 && received.empty(); ++attempt) {
    const int polite = connect_client();
    ASSERT_GE(polite, 0);
    timeval timeout{30, 0};
    ::setsockopt(polite, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    const std::string script =
        "{\"verb\":\"wait\",\"id\":5,\"job\":1,\"timeout_ms\":20000}\n";
    ::send(polite, script.data(), script.size(), 0);
    char buf[65536];
    const ssize_t n = ::recv(polite, buf, sizeof buf, 0);
    if (n > 0) received.assign(buf, static_cast<std::size_t>(n));
    ::close(polite);
  }
  ASSERT_FALSE(received.empty());
  const ServiceResponse waited =
      ServiceResponse::from_json(lines_of(received)[0]);
  ASSERT_TRUE(waited.ok) << received;
  EXPECT_NE(waited.result_json.find("\"state\":\"done\""), std::string::npos)
      << waited.result_json;

  // Shutdown returns only after connection threads wind down; a leaked
  // worker thread stuck in the dead connection's analyze would hang the
  // join (and TSan would flag the leak).
  ServiceRequest shutdown;
  shutdown.verb = ServiceVerb::Shutdown;
  EXPECT_TRUE(service.handle(shutdown).ok);
  server.join();
}
#endif  // POSIX sockets

}  // namespace
}  // namespace protest