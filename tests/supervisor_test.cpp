// The supervised multi-process serve stack: backoff schedules, fault-spec
// parsing, deadline-aware cancellation tokens, rendezvous placement, and
// end-to-end supervisor behavior against REAL worker processes (crash,
// wedge, garbage, deadline, ticket survival).  Process tests spawn the
// CLI binary named by PROTEST_BIN (set by CTest) and skip without it.
//
// Deliberately NOT in the TSan CI filter: it forks/spawns child
// processes, which TSan's runtime does not follow.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json.hpp"
#include "protest/service.hpp"
#include "protest/supervisor.hpp"
#include "util/backoff.hpp"
#include "util/cancel.hpp"
#include "protest/fault_inject.hpp"

namespace protest {
namespace {

using std::chrono::milliseconds;

// --- backoff ----------------------------------------------------------------

TEST(Backoff, CappedExponentialSequenceIsDeterministic) {
  BackoffPolicy policy;  // 100ms * 2^n capped at 5000ms
  EXPECT_EQ(policy.delay(0), milliseconds(100));
  EXPECT_EQ(policy.delay(1), milliseconds(200));
  EXPECT_EQ(policy.delay(2), milliseconds(400));
  EXPECT_EQ(policy.delay(5), milliseconds(3200));
  EXPECT_EQ(policy.delay(6), milliseconds(5000));  // capped
  EXPECT_EQ(policy.delay(63), milliseconds(5000));
  EXPECT_EQ(policy.delay(1000), milliseconds(5000));  // overflow-safe
}

TEST(Backoff, ZeroInitialAndCustomMultiplier) {
  BackoffPolicy zero;
  zero.initial = milliseconds(0);
  EXPECT_EQ(zero.delay(0), milliseconds(0));
  EXPECT_EQ(zero.delay(20), milliseconds(0));

  BackoffPolicy gentle;
  gentle.initial = milliseconds(10);
  gentle.max = milliseconds(100);
  gentle.multiplier = 1.5;
  EXPECT_EQ(gentle.delay(0), milliseconds(10));
  EXPECT_EQ(gentle.delay(1), milliseconds(15));
  EXPECT_EQ(gentle.delay(40), milliseconds(100));
}

// --- fault-spec parsing -----------------------------------------------------

TEST(FaultInject, ParsesActionsVerbsCountsAndWorkerScopes) {
  FaultInjector inj = FaultInjector::parse("crash@analyze");
  EXPECT_TRUE(inj.armed());
  FaultAction action{};
  EXPECT_FALSE(inj.should_fire("stats", &action));
  EXPECT_TRUE(inj.should_fire("analyze", &action));
  EXPECT_EQ(action, FaultAction::Crash);
  // Rules fire exactly once.
  EXPECT_FALSE(inj.should_fire("analyze", &action));

  // nth counts MATCHING requests; '*' matches any verb.
  FaultInjector nth = FaultInjector::parse("garbage@*:3");
  EXPECT_FALSE(nth.should_fire("analyze", &action));
  EXPECT_FALSE(nth.should_fire("stats", &action));
  EXPECT_TRUE(nth.should_fire("perturb", &action));
  EXPECT_EQ(action, FaultAction::Garbage);

  // Worker scoping: w1: rules arm only in worker 1.
  FaultInjector w0 = FaultInjector::parse("w1:stall@analyze", /*worker=*/0);
  EXPECT_FALSE(w0.armed());
  FaultInjector w1 = FaultInjector::parse("w1:stall@analyze", /*worker=*/1);
  EXPECT_TRUE(w1.armed());
  EXPECT_TRUE(w1.should_fire("analyze", &action));
  EXPECT_EQ(action, FaultAction::Stall);

  // Comma-separated rules arm independently.
  FaultInjector multi =
      FaultInjector::parse("w0:crash@analyze,w1:stall@stats:2", /*worker=*/1);
  EXPECT_TRUE(multi.armed());
  EXPECT_FALSE(multi.should_fire("analyze", &action));  // scoped to w0
  EXPECT_FALSE(multi.should_fire("stats", &action));
  EXPECT_TRUE(multi.should_fire("stats", &action));
}

TEST(FaultInject, MalformedSpecsAreHardErrors) {
  for (const char* spec :
       {"explode@analyze", "crash", "crash@", "crash@analyze:0",
        "crash@analyze:zillion", "w:crash@analyze", "wx:crash@analyze",
        "crash@analyze:9999999", "crash@analyse", "w1:crash@analyse"}) {
    EXPECT_THROW(FaultInjector::parse(spec), std::invalid_argument) << spec;
  }
  // An inert injector never fires.
  FaultInjector none;
  FaultAction action{};
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.should_fire("analyze", &action));
}

// --- deadline-aware cancellation tokens -------------------------------------

TEST(CancelDeadline, ReasonDistinguishesCancelFromDeadline) {
  const CancelToken inert;
  EXPECT_FALSE(inert.cancellable());
  EXPECT_EQ(inert.reason(), CancelReason::None);
  inert.request_cancel();  // no-op
  EXPECT_EQ(inert.reason(), CancelReason::None);

  const CancelToken src = CancelToken::source();
  EXPECT_EQ(src.reason(), CancelReason::None);
  src.request_cancel();
  EXPECT_EQ(src.reason(), CancelReason::Cancelled);
  try {
    src.check();
    FAIL() << "expected OperationCancelled";
  } catch (const OperationCancelled& e) {
    EXPECT_EQ(e.reason(), CancelReason::Cancelled);
  }

  const auto past = std::chrono::steady_clock::now() - milliseconds(1);
  const CancelToken expired = CancelToken::deadline_source(past);
  EXPECT_EQ(expired.reason(), CancelReason::DeadlineExceeded);
  try {
    expired.check();
    FAIL() << "expected OperationCancelled";
  } catch (const OperationCancelled& e) {
    EXPECT_EQ(e.reason(), CancelReason::DeadlineExceeded);
  }

  const auto future = std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(CancelToken::deadline_source(future).reason(), CancelReason::None);
}

TEST(CancelDeadline, ExplicitCancelWinsOverExpiredDeadline) {
  const auto past = std::chrono::steady_clock::now() - milliseconds(1);
  const CancelToken token = CancelToken::deadline_source(past);
  token.request_cancel();
  EXPECT_EQ(token.reason(), CancelReason::Cancelled);
}

TEST(CancelDeadline, DeadlineChildKeepsObservingItsParent) {
  // The service nests a deadline scope inside a job's cancel scope; the
  // job's cancel must reach checkpoints through the deadline token.
  const CancelToken job = CancelToken::source();
  const auto future = std::chrono::steady_clock::now() + std::chrono::hours(1);
  const CancelToken child = CancelToken::with_deadline(job, future);
  EXPECT_EQ(child.reason(), CancelReason::None);
  job.request_cancel();
  EXPECT_EQ(child.reason(), CancelReason::Cancelled);
  // ...but cancelling the child never cancels the parent.
  const CancelToken job2 = CancelToken::source();
  const CancelToken child2 = CancelToken::with_deadline(job2, future);
  child2.request_cancel();
  EXPECT_EQ(child2.reason(), CancelReason::Cancelled);
  EXPECT_EQ(job2.reason(), CancelReason::None);
}

TEST(CancelDeadline, ScopeInstallsAmbientToken) {
  EXPECT_FALSE(current_cancel_token().cancellable());
  {
    const CancelToken token = CancelToken::source();
    const CancelScope scope(token);
    EXPECT_TRUE(current_cancel_token().cancellable());
    token.request_cancel();
    EXPECT_THROW(check_cancelled(), OperationCancelled);
  }
  EXPECT_FALSE(current_cancel_token().cancellable());
  EXPECT_NO_THROW(check_cancelled());
}

// Every budget in the protocol's deadline_ms range (up to 2^53 ms) is a
// deadline in the future.  now + 10^13 ms overflows the clock's nanosecond
// count; it used to wrap into a deadline that tripped at once.
TEST(CancelDeadline, HugeBudgetsSaturateInsteadOfWrapping) {
  for (const std::int64_t ms : {std::int64_t{1} << 53,
                                std::int64_t{10'000'000'000'000}}) {
    const auto deadline = deadline_after(milliseconds(ms));
    EXPECT_EQ(deadline, std::chrono::steady_clock::time_point::max()) << ms;
    EXPECT_EQ(CancelToken::deadline_source(deadline).reason(),
              CancelReason::None)
        << ms;
  }
  const auto before = std::chrono::steady_clock::now();
  const auto hour = deadline_after(std::chrono::hours(1));
  EXPECT_GE(hour, before + std::chrono::hours(1));
  EXPECT_LT(hour, before + std::chrono::minutes(61));

  ProtestService service;
  const std::string lines[] = {
      R"({"verb":"load_netlist","id":1,"netlist":"c","circuit":"c17"})",
      R"({"verb":"analyze","id":2,"netlist":"c","p":0.5,)"
      R"("deadline_ms":10000000000000})"};
  for (const std::string& line : lines) {
    const std::string response = service.handle_line(line);
    EXPECT_TRUE(ServiceResponse::from_json(response).ok) << response;
  }
}

// --- placement --------------------------------------------------------------

TEST(Placement, IsPureAndMatchesTheFingerprintArgmax) {
  for (const char* name : {"alu", "c17", "big", "x", ""}) {
    for (unsigned workers = 1; workers <= 8; ++workers) {
      const unsigned chosen = worker_for_netlist(name, workers);
      ASSERT_LT(chosen, workers);
      EXPECT_EQ(chosen, worker_for_netlist(name, workers)) << "not pure";
      for (unsigned w = 0; w < workers; ++w) {
        EXPECT_LE(placement_fingerprint(name, w),
                  placement_fingerprint(name, chosen))
            << name << " workers=" << workers << " w=" << w;
      }
    }
  }
  EXPECT_EQ(worker_for_netlist("anything", 1), 0u);
  EXPECT_EQ(worker_for_netlist("anything", 0), 0u);
}

TEST(Placement, RendezvousGrowthOnlyRehomesToTheNewWorker) {
  // Adding a worker must never move a name between PRE-EXISTING workers —
  // the rendezvous property that keeps fleet growth cheap.
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) names.push_back("net" + std::to_string(i));
  for (unsigned workers = 1; workers < 8; ++workers) {
    for (const std::string& name : names) {
      const unsigned before = worker_for_netlist(name, workers);
      const unsigned after = worker_for_netlist(name, workers + 1);
      EXPECT_TRUE(after == before || after == workers)
          << name << " moved " << before << " -> " << after << " when worker "
          << workers << " joined";
    }
  }
  // Sanity: with a few workers every slot owns something.
  std::vector<int> owned(4, 0);
  for (const std::string& name : names) ++owned[worker_for_netlist(name, 4)];
  for (int count : owned) EXPECT_GT(count, 0);
}

// --- end-to-end against real worker processes -------------------------------

/// Builds supervisor options sized for test speed: tight heartbeats,
/// fast restarts, the CTest-provided worker binary.
SupervisorOptions fast_options(unsigned workers, const std::string& faults) {
  SupervisorOptions opts;
  opts.workers = workers;
  opts.fault_spec = faults;
  opts.heartbeat_interval = milliseconds(50);
  opts.heartbeat_timeout = milliseconds(250);
  opts.backoff.initial = milliseconds(20);
  opts.backoff.max = milliseconds(200);
  const char* bin = std::getenv("PROTEST_BIN");
  opts.worker_binary = bin ? bin : "";
  return opts;
}

#define REQUIRE_SUPERVISOR()                                              \
  do {                                                                    \
    if (!supervisor_supported())                                          \
      GTEST_SKIP() << "supervisor unsupported on this platform";          \
    const char* bin = std::getenv("PROTEST_BIN");                         \
    if (!bin || !*bin)                                                    \
      GTEST_SKIP() << "PROTEST_BIN not set (run under CTest)";            \
  } while (0)

ServiceResponse ask(Supervisor& sup, const std::string& line) {
  return ServiceResponse::from_json(sup.handle_line(line));
}

TEST(SupervisorProcess, ServesAConversationAndSurfacesFleetStats) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  Supervisor sup(fast_options(2, ""), log);

  const ServiceResponse load = ask(
      sup,
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
      "\"circuit\":\"c17\"}");
  ASSERT_TRUE(load.ok) << load.error_message;
  const ServiceResponse analyze = ask(
      sup, "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c17\",\"p\":0.5}");
  ASSERT_TRUE(analyze.ok) << analyze.error_message;

  // The analyze payload matches the single-process service byte for byte:
  // the router rewrites heads, never payloads.
  ProtestService reference;
  reference.handle_line(
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
      "\"circuit\":\"c17\"}");
  const ServiceResponse direct = ServiceResponse::from_json(
      reference.handle_line(
          "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c17\",\"p\":0.5}"));
  EXPECT_EQ(analyze.result_json, direct.result_json);

  const ServiceResponse stats = ask(sup, "{\"verb\":\"stats\",\"id\":3}");
  ASSERT_TRUE(stats.ok);
  const JsonValue doc = parse_json(stats.result_json);
  EXPECT_EQ(doc.at("workers").as_number(), 2.0);
  const auto& fleet = doc.at("supervisor").at("workers").as_array();
  ASSERT_EQ(fleet.size(), 2u);
  for (const JsonValue& w : fleet) {
    EXPECT_EQ(w.at("state").as_string(), "up");
    EXPECT_GT(w.at("pid").as_number(), 0.0);
  }

  const ServiceResponse bye = ask(sup, "{\"verb\":\"shutdown\",\"id\":4}");
  EXPECT_TRUE(bye.ok);
  EXPECT_TRUE(sup.shutdown_requested());
  const SupervisorCounters counters = sup.counters();
  EXPECT_EQ(counters.restarts, 0u);
  EXPECT_EQ(counters.worker_lost, 0u);
}

TEST(SupervisorProcess, WorkerCountNeverChangesServedPayloads) {
  REQUIRE_SUPERVISOR();
  // Placement only routes requests — it must never alter results: a
  // 1-worker and a 2-worker fleet serve byte-identical analyze payloads
  // for the same conversation, across several netlists so both workers
  // of the larger fleet own some of them.
  // Load responses echo the worker-local resident list (legitimately
  // fleet-dependent); only the analysis payloads must be byte-identical.
  const std::vector<std::string> loads = {
      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
      "\"circuit\":\"c17\"}",
      "{\"verb\":\"load_netlist\",\"id\":2,\"netlist\":\"alu\","
      "\"circuit\":\"alu\"}",
  };
  const std::vector<std::string> queries = {
      "{\"verb\":\"analyze\",\"id\":3,\"netlist\":\"c17\",\"p\":0.5,"
      "\"artifacts\":[\"signal_probs\",\"observability\","
      "\"detection_probs\",\"test_lengths\"]}",
      "{\"verb\":\"analyze\",\"id\":4,\"netlist\":\"alu\",\"p\":0.3}",
      "{\"verb\":\"perturb\",\"id\":5,\"netlist\":\"c17\",\"p\":0.5,"
      "\"input_index\":1,\"new_p\":0.9}",
  };
  std::ostringstream log1, log2;
  Supervisor one(fast_options(1, ""), log1);
  Supervisor two(fast_options(2, ""), log2);
  for (const std::string& line : loads) {
    ASSERT_TRUE(ask(one, line).ok) << line;
    ASSERT_TRUE(ask(two, line).ok) << line;
  }
  for (const std::string& line : queries) {
    const ServiceResponse a = ask(one, line);
    const ServiceResponse b = ask(two, line);
    ASSERT_TRUE(a.ok) << a.error_message;
    ASSERT_TRUE(b.ok) << b.error_message;
    EXPECT_EQ(a.result_json, b.result_json) << line;
  }
}

TEST(SupervisorProcess, CrashedWorkerRestartsAndIdempotentReadRetries) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  Supervisor sup(fast_options(2, "crash@analyze"), log);

  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
                  "\"circuit\":\"c17\"}")
                  .ok);
  // The worker owning c17 crashes mid-analyze; the supervisor restarts
  // it, replays the netlist, retries, and the client sees a plain result.
  const ServiceResponse analyze = ask(
      sup, "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c17\",\"p\":0.5}");
  ASSERT_TRUE(analyze.ok) << analyze.error_message;

  const SupervisorCounters counters = sup.counters();
  EXPECT_EQ(counters.restarts, 1u);
  EXPECT_EQ(counters.retries, 1u);
  EXPECT_EQ(counters.worker_lost, 0u);
  EXPECT_NE(log.str().find("died"), std::string::npos);
  EXPECT_NE(log.str().find("back up"), std::string::npos);

  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":3}").ok);

  // The other retried work verbs take the same path.
  for (const std::string verb : {"fault_bounds", "lint"}) {
    std::ostringstream verb_log;
    Supervisor verb_sup(fast_options(2, "crash@" + verb), verb_log);
    ASSERT_TRUE(ask(verb_sup,
                    "{\"verb\":\"load_netlist\",\"id\":1,"
                    "\"netlist\":\"c17\",\"circuit\":\"c17\"}")
                    .ok);
    const ServiceResponse read = ask(
        verb_sup,
        "{\"verb\":\"" + verb + "\",\"id\":2,\"netlist\":\"c17\"}");
    ASSERT_TRUE(read.ok) << verb << ": " << read.error_message;
    EXPECT_EQ(read.verb, verb);
    const SupervisorCounters verb_counters = verb_sup.counters();
    EXPECT_EQ(verb_counters.restarts, 1u) << verb;
    EXPECT_EQ(verb_counters.retries, 1u) << verb;
    EXPECT_EQ(verb_counters.worker_lost, 0u) << verb;
    EXPECT_TRUE(ask(verb_sup, "{\"verb\":\"shutdown\",\"id\":3}").ok);
  }
}

TEST(SupervisorProcess, NonIdempotentVerbAnswersWorkerLost) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  Supervisor sup(fast_options(1, "crash@optimize"), log);

  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
                  "\"circuit\":\"c17\"}")
                  .ok);
  const ServiceResponse opt = ask(
      sup,
      "{\"verb\":\"optimize\",\"id\":2,\"netlist\":\"c17\",\"n\":100}");
  EXPECT_FALSE(opt.ok);
  EXPECT_EQ(opt.error_code, "worker_lost");
  EXPECT_EQ(opt.id, 2u);
  EXPECT_EQ(opt.verb, "optimize");
  EXPECT_GE(sup.counters().worker_lost, 1u);

  // The fleet recovers: the SAME name keeps answering after the restart.
  const ServiceResponse analyze = ask(
      sup, "{\"verb\":\"analyze\",\"id\":3,\"netlist\":\"c17\",\"p\":0.5}");
  EXPECT_TRUE(analyze.ok) << analyze.error_message;
  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":4}").ok);
}

TEST(SupervisorProcess, GarbageOutputKillsTheWorkerNeverTheClient) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  Supervisor sup(fast_options(1, "garbage@analyze"), log);

  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
                  "\"circuit\":\"c17\"}")
                  .ok);
  // The worker emits a corrupt line instead of the analyze response; the
  // supervisor kills it and the retried analyze still succeeds — the
  // client NEVER sees the corrupt bytes.
  const ServiceResponse analyze = ask(
      sup, "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c17\",\"p\":0.5}");
  ASSERT_TRUE(analyze.ok) << analyze.error_message;
  EXPECT_EQ(analyze.id, 2u);
  EXPECT_GE(sup.counters().garbage, 1u);
  EXPECT_EQ(sup.counters().restarts, 1u);
  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":3}").ok);
}

TEST(SupervisorProcess, WedgedWorkerIsKilledByHeartbeatTimeout) {
  REQUIRE_SUPERVISOR();
  // The stalled reader never EOFs on its own — only the heartbeat
  // timeout catches it.  Shrink the stall so the killed worker's reader
  // thread doesn't outlive the test harness.
  ::setenv("PROTEST_FAULT_STALL_MS", "2000", 1);
  std::ostringstream log;
  Supervisor sup(fast_options(1, "stall@analyze"), log);
  ::unsetenv("PROTEST_FAULT_STALL_MS");

  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
                  "\"circuit\":\"c17\"}")
                  .ok);
  const ServiceResponse analyze = ask(
      sup, "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"c17\",\"p\":0.5}");
  ASSERT_TRUE(analyze.ok) << analyze.error_message;
  EXPECT_GE(sup.counters().wedges, 1u);
  EXPECT_GE(sup.counters().restarts, 1u);
  EXPECT_NE(log.str().find("wedged"), std::string::npos);
  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":3}").ok);
}

TEST(SupervisorProcess, TicketsSurviveWorkerLossAsObservableFailures) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  // The first poll crashes the worker with the job's process state in it.
  Supervisor sup(fast_options(1, "crash@poll"), log);

  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
                  "\"circuit\":\"c17\"}")
                  .ok);
  const ServiceResponse submit = ask(
      sup,
      "{\"verb\":\"submit\",\"id\":2,\"request\":{\"verb\":\"analyze\","
      "\"id\":100,\"netlist\":\"c17\",\"p\":0.5}}");
  ASSERT_TRUE(submit.ok) << submit.error_message;
  const JsonValue ticket = parse_json(submit.result_json);
  EXPECT_EQ(ticket.at("job").as_number(), 1.0);  // global numbering

  // This poll line kills the worker; the ticket must resolve as a FAILED
  // job — structured, pollable, never an orphan and never a hang.
  const ServiceResponse poll =
      ask(sup, "{\"verb\":\"poll\",\"id\":3,\"job\":1}");
  ASSERT_TRUE(poll.ok) << poll.error_message;
  const JsonValue lost = parse_json(poll.result_json);
  EXPECT_EQ(lost.at("state").as_string(), "failed");
  EXPECT_NE(lost.at("error").as_string().find("worker_lost"),
            std::string::npos);

  // ...and keeps answering the same way after the restart (wait + jobs).
  const ServiceResponse wait =
      ask(sup, "{\"verb\":\"wait\",\"id\":4,\"job\":1,\"timeout_ms\":100}");
  ASSERT_TRUE(wait.ok);
  EXPECT_EQ(parse_json(wait.result_json).at("state").as_string(), "failed");
  const ServiceResponse jobs = ask(sup, "{\"verb\":\"jobs\",\"id\":5}");
  ASSERT_TRUE(jobs.ok);
  const JsonValue jobs_doc = parse_json(jobs.result_json);
  const auto& listed = jobs_doc.at("jobs").as_array();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].at("job").as_number(), 1.0);
  EXPECT_EQ(listed[0].at("state").as_string(), "failed");
  // Cancel on a lost ticket: nothing left to cancel, still structured.
  const ServiceResponse cancel =
      ask(sup, "{\"verb\":\"cancel\",\"id\":6,\"job\":1}");
  ASSERT_TRUE(cancel.ok);
  EXPECT_EQ(parse_json(cancel.result_json).at("requested").as_bool(), false);
  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":7}").ok);
}

TEST(SupervisorProcess, TicketsRouteAndCompleteAcrossTheFleet) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  Supervisor sup(fast_options(2, ""), log);

  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c17\","
                  "\"circuit\":\"c17\"}")
                  .ok);
  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":2,\"netlist\":\"alu\","
                  "\"circuit\":\"alu\"}")
                  .ok);
  // Two tickets on (potentially) different workers share one global
  // numbering and both resolve through wait.
  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"submit\",\"id\":3,\"request\":{\"verb\":"
                  "\"analyze\",\"id\":100,\"netlist\":\"c17\",\"p\":0.5}}")
                  .ok);
  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"submit\",\"id\":4,\"request\":{\"verb\":"
                  "\"analyze\",\"id\":101,\"netlist\":\"alu\",\"p\":0.5}}")
                  .ok);
  for (int job = 1; job <= 2; ++job) {
    const ServiceResponse wait = ask(
        sup, "{\"verb\":\"wait\",\"id\":" + std::to_string(4 + job) +
                 ",\"job\":" + std::to_string(job) + ",\"timeout_ms\":15000}");
    ASSERT_TRUE(wait.ok) << wait.error_message;
    EXPECT_EQ(wait.verb, "wait");
    const JsonValue done = parse_json(wait.result_json);
    EXPECT_EQ(done.at("job").as_number(), static_cast<double>(job));
    EXPECT_EQ(done.at("state").as_string(), "done");
    // The embedded inner response keeps the client's inner id.
    EXPECT_EQ(done.at("response").at("id").as_number(),
              job == 1 ? 100.0 : 101.0);
  }
  const ServiceResponse unknown =
      ask(sup, "{\"verb\":\"poll\",\"id\":9,\"job\":42}");
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error_code, "unknown_job");
  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":10}").ok);
}

TEST(SupervisorProcess, DeadlineBudgetAnswersDeadlineExceeded) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  Supervisor sup(fast_options(1, ""), log);

  // div loads well inside the heartbeat budget even in sanitizer builds
  // (a stress100k load can outlast it there, and the worker is killed as
  // wedged mid-load), and 5e7 Monte-Carlo patterns take seconds.
  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"mc\","
                  "\"circuit\":\"div\",\"engine\":\"monte-carlo\","
                  "\"patterns\":50000000}")
                  .ok);
  // A 50 ms budget on a multi-second Monte-Carlo: the worker's checkpoint
  // cancels the work and answers structurally — no hang, no partial line.
  const ServiceResponse late = ask(
      sup,
      "{\"verb\":\"analyze\",\"id\":2,\"netlist\":\"mc\",\"p\":0.5,"
      "\"deadline_ms\":50}");
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.error_code, "deadline_exceeded");
  EXPECT_EQ(late.id, 2u);
  EXPECT_GE(sup.counters().timeouts, 1u);
  // The worker survives a cancelled request (no restart needed).
  EXPECT_EQ(sup.counters().restarts, 0u);
  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":3}").ok);
}

TEST(SupervisorProcess, TimeoutsCountOnlyAnswersThatAreDeadlineExceeded) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  Supervisor sup(fast_options(1, ""), log);

  // div loads fast (well inside the heartbeat budget even in sanitizer
  // builds), and 5e7 Monte-Carlo patterns take far longer than 50 ms.
  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"mc\","
                  "\"circuit\":\"div\",\"engine\":\"monte-carlo\","
                  "\"patterns\":50000000}")
                  .ok);
  // A job whose inner request runs out of budget: every wait and poll
  // embeds the deadline_exceeded response, but is itself an ok answer.
  ASSERT_TRUE(ask(sup,
                  "{\"verb\":\"submit\",\"id\":2,\"request\":{\"verb\":"
                  "\"analyze\",\"id\":100,\"netlist\":\"mc\",\"p\":0.5,"
                  "\"deadline_ms\":50}}")
                  .ok);
  const ServiceResponse wait =
      ask(sup, "{\"verb\":\"wait\",\"id\":3,\"job\":1}");
  ASSERT_TRUE(wait.ok) << wait.error_message;
  const JsonValue done = parse_json(wait.result_json);
  ASSERT_EQ(done.at("state").as_string(), "done");
  EXPECT_EQ(done.at("response").at("error").at("code").as_string(),
            "deadline_exceeded");
  for (int id = 4; id <= 6; ++id) {
    EXPECT_TRUE(ask(sup, "{\"verb\":\"poll\",\"id\":" + std::to_string(id) +
                             ",\"job\":1}")
                    .ok);
  }
  EXPECT_EQ(sup.counters().timeouts, 0u);

  // An answer whose own code is deadline_exceeded counts once; later
  // polls of the job leave the counter where it is.
  const ServiceResponse late = ask(
      sup,
      "{\"verb\":\"analyze\",\"id\":7,\"netlist\":\"mc\",\"p\":0.5,"
      "\"deadline_ms\":50}");
  EXPECT_EQ(late.error_code, "deadline_exceeded");
  EXPECT_EQ(sup.counters().timeouts, 1u);
  EXPECT_TRUE(ask(sup, "{\"verb\":\"poll\",\"id\":8,\"job\":1}").ok);
  EXPECT_EQ(sup.counters().timeouts, 1u);
  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":9}").ok);
}

TEST(SupervisorProcess, MalformedLinesAnswerStructuredErrors) {
  REQUIRE_SUPERVISOR();
  std::ostringstream log;
  Supervisor sup(fast_options(1, ""), log);

  const ServiceResponse bad = ask(sup, "this is not json");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_code, "bad_request");
  const ServiceResponse bad_id =
      ask(sup, "{\"verb\":\"stats\",\"id\":-3}");
  EXPECT_FALSE(bad_id.ok);
  EXPECT_EQ(bad_id.error_code, "bad_request");
  EXPECT_EQ(bad_id.id, 0u);
  EXPECT_EQ(bad_id.verb, "stats");
  const ServiceResponse unknown_netlist = ask(
      sup, "{\"verb\":\"analyze\",\"id\":4,\"netlist\":\"nope\",\"p\":0.5}");
  EXPECT_FALSE(unknown_netlist.ok);
  EXPECT_EQ(unknown_netlist.error_code, "unknown_netlist");

  // The supervisor and the in-process service share one request decode,
  // so every error line matches byte for byte.
  ProtestService reference;
  for (const char* line : {
           "this is not json",
           "[1,2,3]",
           "{\"verb\":\"stats\",\"id\":-3}",
           "{\"verb\":\"stats\",\"id\":1.5}",
           "{\"verb\":\"stats\",\"id\":9007199254740994}",
           "{\"verb\":\"frobnicate\",\"id\":6}",
           "{\"verb\":\"analyze\",\"id\":7,\"wibble\":true}",
           "{\"verb\":\"analyze\",\"id\":8,\"netlist\":9}",
           "{\"verb\":\"submit\",\"id\":9,\"request\":{\"verb\":\"stats\"}}",
       }) {
    const std::string routed = sup.handle_line(line);
    EXPECT_FALSE(ServiceResponse::from_json(routed).ok) << line;
    EXPECT_EQ(routed, reference.handle_line(line)) << line;
  }
  EXPECT_TRUE(ask(sup, "{\"verb\":\"shutdown\",\"id\":5}").ok);
}

}  // namespace
}  // namespace protest
