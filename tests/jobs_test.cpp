// The async job layer: the cooperative-cancellation substrate
// (util/cancel.hpp), its checkpoints in the long-running paths (the
// Monte-Carlo shard loop, the hill-climb sweep, the session's parallel
// neighborhood sweep, the fault-bounds sweep), the JobManager ticket
// machine, and the service-level cancellation semantics: a cancelled
// Monte-Carlo job stops within one shard, a cancelled optimize stops within
// one sweep, a cancelled fault_bounds stops at a sweep task, and poll() on
// a cancelled ticket reports `cancelled` — never a partial result.  This
// suite runs under TSan in CI (real threads throughout).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "analysis/json.hpp"
#include "circuits/iscas.hpp"
#include "circuits/zoo.hpp"
#include "optimize/hill_climb.hpp"
#include "optimize/objective.hpp"
#include "prob/engine.hpp"
#include "prob/monte_carlo.hpp"
#include "prob/naive.hpp"
#include "protest/jobs.hpp"
#include "protest/service.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

using namespace std::chrono_literals;

// --- the token --------------------------------------------------------------

TEST(CancelToken, InertTokenNeverCancels) {
  const CancelToken inert;
  EXPECT_FALSE(inert.cancellable());
  inert.request_cancel();  // no-op
  EXPECT_FALSE(inert.cancel_requested());
  EXPECT_NO_THROW(inert.check());
}

TEST(CancelToken, EveryCopyObservesTheCancellation) {
  const CancelToken token = CancelToken::source();
  const CancelToken copy = token;
  EXPECT_TRUE(token.cancellable());
  EXPECT_FALSE(copy.cancel_requested());
  token.request_cancel();
  EXPECT_TRUE(copy.cancel_requested());
  EXPECT_THROW(copy.check(), OperationCancelled);
}

TEST(CancelScope, InstallsAndRestoresTheAmbientToken) {
  EXPECT_FALSE(current_cancel_token().cancellable());
  const CancelToken outer = CancelToken::source();
  {
    const CancelScope outer_scope(outer);
    EXPECT_TRUE(current_cancel_token().cancellable());
    {
      const CancelScope inner_scope(CancelToken{});  // scopes nest
      EXPECT_FALSE(current_cancel_token().cancellable());
    }
    outer.request_cancel();
    EXPECT_THROW(check_cancelled(), OperationCancelled);
  }
  EXPECT_NO_THROW(check_cancelled());
}

// --- propagation through the executor ---------------------------------------

TEST(Executor, ForwardsTheAmbientTokenToPoolTasks) {
  Executor exec(2);
  const CancelToken token = CancelToken::source();
  const CancelScope scope(token);
  // Every task — on pool threads and on the caller acting as worker 0 —
  // must observe the submitting thread's token.
  std::atomic<int> observed{0};
  exec.parallel_for(8, [&](std::size_t, unsigned) {
    if (current_cancel_token().cancellable()) ++observed;
  });
  EXPECT_EQ(observed.load(), 8);

  token.request_cancel();
  EXPECT_THROW(
      exec.parallel_for(8, [&](std::size_t, unsigned) { check_cancelled(); }),
      OperationCancelled);
}

// --- checkpoints in the long-running paths ----------------------------------

TEST(MonteCarloCancel, CancelledAnalyzeThrowsAtTheShardBoundary) {
  const Netlist net = make_circuit("alu");
  const InputProbs probs = uniform_input_probs(net, 0.5);

  // Pre-cancelled: both the free function (serial shard loop) and the
  // engine (executor shard loop, any thread count) stop without
  // simulating a single shard.
  const CancelToken token = CancelToken::source();
  token.request_cancel();
  const CancelScope scope(token);
  EXPECT_THROW(monte_carlo_signal_probs(net, probs, 100'000, 1),
               OperationCancelled);
  for (const unsigned threads : {1u, 2u}) {
    MonteCarloEngineParams params;
    params.num_patterns = 100'000;
    params.parallel.num_threads = threads;
    const MonteCarloEngine engine(net, params);
    EXPECT_THROW(engine.signal_probs(probs), OperationCancelled);
  }
}

TEST(MonteCarloCancel, MidFlightCancelStopsWithoutFinishingTheBudget) {
  // A pattern budget that takes far longer than the cancellation delay:
  // if the shard checkpoint were missing, the evaluation would grind
  // through all 50M patterns and the throw below would never happen.
  const Netlist net = make_circuit("alu");
  MonteCarloEngineParams params;
  params.num_patterns = 50'000'000;
  params.parallel.num_threads = 2;
  const MonteCarloEngine engine(net, params);

  const CancelToken token = CancelToken::source();
  std::thread canceller([&] {
    std::this_thread::sleep_for(20ms);
    token.request_cancel();
  });
  const CancelScope scope(token);
  EXPECT_THROW(engine.signal_probs(uniform_input_probs(net, 0.5)),
               OperationCancelled);
  canceller.join();
}

TEST(HillClimbCancel, CancelledOptimizeStopsWithinOneSweep) {
  const Netlist net = make_c17();
  const ObjectiveEvaluator eval(net, structural_fault_list(net), 1'000);
  const CancelToken token = CancelToken::source();
  token.request_cancel();
  const CancelScope scope(token);
  // The per-coordinate checkpoint fires before the first neighborhood —
  // well within one sweep.
  EXPECT_THROW(optimize_input_probs(eval), OperationCancelled);
}

TEST(ParallelEvalCancel, CancelledSweepStopsAtATaskBoundary) {
  // Every sweep task checkpoints before it starts, on whichever executor
  // worker claims it.
  const Netlist net = make_c17();
  SessionOptions opts;
  opts.parallel.num_threads = 2;
  AnalysisSession session(net, opts);
  const AnalysisResult base = session.analyze(uniform_input_probs(net, 0.5));
  const CancelToken token = CancelToken::source();
  token.request_cancel();
  const CancelScope scope(token);
  const std::vector<double> values(8, 0.25);
  EXPECT_THROW(session.perturb_screen_sweep(base, 0, values),
               OperationCancelled);
}

// --- the job manager --------------------------------------------------------

TEST(JobManager, SubmitWaitPollRoundTrip) {
  JobManager jobs(2);
  const JobTicket ticket = jobs.submit("demo", [] { return "payload"; });
  EXPECT_EQ(ticket.id, 1u);

  const std::optional<JobInfo> done = jobs.wait(ticket.id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done);
  EXPECT_EQ(done->payload, "payload");
  EXPECT_EQ(done->label, "demo");

  // poll() keeps answering after completion, byte-for-byte.
  const std::optional<JobInfo> again = jobs.poll(ticket.id);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->state, JobState::Done);
  EXPECT_EQ(again->payload, "payload");

  EXPECT_EQ(jobs.num_pending(), 0u);
  const std::vector<JobInfo> listing = jobs.jobs();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].id, 1u);
  EXPECT_EQ(listing[0].state, JobState::Done);
  EXPECT_TRUE(listing[0].payload.empty());  // listings omit payloads
}

TEST(JobManager, UnknownTicketsAreNullopt) {
  JobManager jobs(1);
  EXPECT_FALSE(jobs.poll(99).has_value());
  EXPECT_FALSE(jobs.wait(99, 1ms).has_value());
  EXPECT_FALSE(jobs.cancel(99));
}

TEST(JobManager, ThrowingJobIsFailedWithItsError) {
  JobManager jobs(1);
  const JobTicket ticket = jobs.submit(
      "boom", []() -> std::string { throw std::runtime_error("kaput"); });
  const std::optional<JobInfo> info = jobs.wait(ticket.id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::Failed);
  EXPECT_EQ(info->error, "kaput");
  EXPECT_TRUE(info->payload.empty());
}

TEST(JobManager, CancelledQueuedJobNeverRuns) {
  JobManager jobs(1);  // one worker, so the second job must queue
  std::atomic<bool> release{false};
  std::atomic<bool> second_ran{false};
  const JobTicket first = jobs.submit("blocker", [&] {
    while (!release.load()) {
      check_cancelled();
      std::this_thread::sleep_for(1ms);
    }
    return "first";
  });
  const JobTicket second = jobs.submit("victim", [&] {
    second_ran.store(true);
    return "second";
  });

  EXPECT_TRUE(jobs.cancel(second.id));
  const std::optional<JobInfo> cancelled = jobs.poll(second.id);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, JobState::Cancelled);  // immediate: never ran
  EXPECT_FALSE(jobs.cancel(second.id));  // already finished

  release.store(true);
  const std::optional<JobInfo> done = jobs.wait(first.id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done);
  EXPECT_FALSE(second_ran.load());
  EXPECT_TRUE(jobs.poll(second.id)->payload.empty());
}

TEST(JobManager, CancelledRunningJobStopsAtItsNextCheckpoint) {
  JobManager jobs(1);
  std::atomic<bool> started{false};
  const JobTicket ticket = jobs.submit("spin", [&] {
    started.store(true);
    // Bounded spin so a broken cancel fails the test instead of hanging.
    for (int i = 0; i < 20'000; ++i) {
      check_cancelled();
      std::this_thread::sleep_for(1ms);
    }
    return "finished anyway";
  });
  while (!started.load()) std::this_thread::sleep_for(1ms);

  EXPECT_TRUE(jobs.cancel(ticket.id));
  const std::optional<JobInfo> info = jobs.wait(ticket.id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::Cancelled);
  EXPECT_TRUE(info->payload.empty());  // never a partial result
}

TEST(JobManager, WaitTimeoutReturnsTheLiveSnapshot) {
  JobManager jobs(1);
  std::atomic<bool> release{false};
  const JobTicket ticket = jobs.submit("slow", [&] {
    while (!release.load()) {
      check_cancelled();
      std::this_thread::sleep_for(1ms);
    }
    return "ok";
  });
  const std::optional<JobInfo> pending = jobs.wait(ticket.id, 5ms);
  ASSERT_TRUE(pending.has_value());
  EXPECT_FALSE(job_finished(pending->state));  // timed out: queued/running
  release.store(true);
  EXPECT_EQ(jobs.wait(ticket.id)->state, JobState::Done);
}

TEST(JobManager, RetentionCapPrunesOldestFinishedJobs) {
  JobManager jobs(1, /*max_retained=*/2);
  EXPECT_EQ(jobs.max_retained(), 2u);
  for (int i = 0; i < 4; ++i) {
    const JobTicket t = jobs.submit("j", [] { return "r"; });
    ASSERT_EQ(jobs.wait(t.id)->state, JobState::Done);
  }
  // The 5th submit prunes the oldest finished tickets beyond the cap.
  jobs.submit("j", [] { return "r"; });
  EXPECT_FALSE(jobs.poll(1).has_value());
  EXPECT_FALSE(jobs.poll(2).has_value());
  EXPECT_TRUE(jobs.poll(4).has_value());
  EXPECT_EQ(jobs.wait(5)->state, JobState::Done);
}

TEST(JobManager, DestructorCancelsOutstandingJobs) {
  std::atomic<bool> started{false};
  {
    JobManager jobs(1);
    jobs.submit("held", [&] {
      started.store(true);
      for (;;) {
        check_cancelled();
        std::this_thread::sleep_for(1ms);
      }
      return "";  // unreachable
    });
    jobs.submit("queued", [] { return "never runs"; });
    while (!started.load()) std::this_thread::sleep_for(1ms);
  }  // ~JobManager: cancels both, joins — reaching the next line IS the test
  SUCCEED();
}

// --- service-level cancellation semantics (the ISSUE's acceptance) ----------

JsonValue result_of(const std::string& response_line) {
  const ServiceResponse resp = ServiceResponse::from_json(response_line);
  EXPECT_TRUE(resp.ok) << response_line;
  return parse_json(resp.result_json);
}

TEST(ServiceJobs, CancelledMonteCarloAnalyzeReportsCancelledNotAResult) {
  // A Monte-Carlo budget (50M patterns) far beyond what can finish before
  // the cancel lands; the job must stop at a shard boundary and poll must
  // report `cancelled` with NO response member.
  ServiceConfig cfg;
  cfg.session_defaults.monte_carlo.num_patterns = 50'000'000;
  ProtestService service(cfg);
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line(
                      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"a\","
                      "\"circuit\":\"alu\",\"engine\":\"monte-carlo\"}"))
                  .ok);

  const JsonValue submit = result_of(service.handle_line(
      "{\"verb\":\"submit\",\"id\":2,\"request\":{\"verb\":\"analyze\","
      "\"id\":3,\"netlist\":\"a\",\"p\":0.5}}"));
  const std::uint64_t job =
      static_cast<std::uint64_t>(submit.at("job").as_number());

  std::this_thread::sleep_for(20ms);  // let the job start crunching shards
  const JsonValue cancel = result_of(service.handle_line(
      "{\"verb\":\"cancel\",\"id\":4,\"job\":" + std::to_string(job) + "}"));
  EXPECT_TRUE(cancel.at("requested").as_bool());

  const JsonValue waited = result_of(service.handle_line(
      "{\"verb\":\"wait\",\"id\":5,\"job\":" + std::to_string(job) + "}"));
  EXPECT_EQ(waited.at("state").as_string(), "cancelled");
  EXPECT_EQ(waited.find("response"), nullptr);

  const JsonValue polled = result_of(service.handle_line(
      "{\"verb\":\"poll\",\"id\":6,\"job\":" + std::to_string(job) + "}"));
  EXPECT_EQ(polled.at("state").as_string(), "cancelled");
  EXPECT_EQ(polled.find("response"), nullptr);
}

TEST(ServiceJobs, CancelledOptimizeReportsCancelled) {
  // A deliberately slow engine makes each objective evaluation take tens
  // of milliseconds, so the hill climb is mid-sweep when the cancel
  // arrives and must abandon the climb at a coordinate checkpoint.
  class SlowNaiveEngine final : public SignalProbEngine {
   public:
    explicit SlowNaiveEngine(const Netlist& net)
        : SignalProbEngine(net, "slow-naive") {}

   protected:
    Evaluation compute(std::span<const double> input_probs) const override {
      std::this_thread::sleep_for(25ms);
      return {naive_signal_probs(netlist(), input_probs), nullptr};
    }
  };
  register_engine("slow-naive",
                  [](const Netlist& net, const EngineConfig&) {
                    return std::make_unique<SlowNaiveEngine>(net);
                  });

  ProtestService service;
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line(
                      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"c\","
                      "\"circuit\":\"c17\",\"engine\":\"slow-naive\"}"))
                  .ok);
  const JsonValue submit = result_of(service.handle_line(
      "{\"verb\":\"submit\",\"id\":2,\"request\":{\"verb\":\"optimize\","
      "\"id\":3,\"netlist\":\"c\",\"n\":1000,\"sweeps\":8}}"));
  const std::uint64_t job =
      static_cast<std::uint64_t>(submit.at("job").as_number());

  std::this_thread::sleep_for(40ms);  // a couple of evaluations in
  result_of(service.handle_line(
      "{\"verb\":\"cancel\",\"id\":4,\"job\":" + std::to_string(job) + "}"));
  const JsonValue waited = result_of(service.handle_line(
      "{\"verb\":\"wait\",\"id\":5,\"job\":" + std::to_string(job) + "}"));
  EXPECT_EQ(waited.at("state").as_string(), "cancelled");
  EXPECT_EQ(waited.find("response"), nullptr);
}

TEST(ServiceJobs, CancelledFaultBoundsReportsCancelled) {
  // The engine holds the job inside its evaluation until the cancel has
  // landed and then returns normally, so the first checkpoint the job can
  // reach is the fault sweep's task boundary, which must end it cancelled.
  static std::atomic<bool> evaluating{false};
  class CancelGatedEngine final : public SignalProbEngine {
   public:
    explicit CancelGatedEngine(const Netlist& net)
        : SignalProbEngine(net, "cancel-gated") {}

   protected:
    Evaluation compute(std::span<const double> input_probs) const override {
      evaluating = true;
      // Bounded so a lost cancel fails the test instead of hanging it.
      for (int i = 0; i < 5000 && !current_cancel_token().cancel_requested();
           ++i)
        std::this_thread::sleep_for(1ms);
      return {naive_signal_probs(netlist(), input_probs), nullptr};
    }
  };
  register_engine("cancel-gated",
                  [](const Netlist& net, const EngineConfig&) {
                    return std::make_unique<CancelGatedEngine>(net);
                  });

  ProtestService service;
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line(
                      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"a\","
                      "\"circuit\":\"alu\",\"engine\":\"cancel-gated\"}"))
                  .ok);
  const JsonValue submit = result_of(service.handle_line(
      "{\"verb\":\"submit\",\"id\":2,\"request\":{\"verb\":"
      "\"fault_bounds\",\"id\":3,\"netlist\":\"a\",\"p\":0.5}}"));
  const std::uint64_t job =
      static_cast<std::uint64_t>(submit.at("job").as_number());
  for (int i = 0; i < 5000 && !evaluating; ++i)
    std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(evaluating);

  result_of(service.handle_line(
      "{\"verb\":\"cancel\",\"id\":4,\"job\":" + std::to_string(job) + "}"));
  const JsonValue waited = result_of(service.handle_line(
      "{\"verb\":\"wait\",\"id\":5,\"job\":" + std::to_string(job) + "}"));
  EXPECT_EQ(waited.at("state").as_string(), "cancelled");
  EXPECT_EQ(waited.find("response"), nullptr);
}

TEST(ServiceJobs, ShutdownCancelsOutstandingJobs) {
  ServiceConfig cfg;
  cfg.session_defaults.monte_carlo.num_patterns = 50'000'000;
  ProtestService service(cfg);
  ASSERT_TRUE(ServiceResponse::from_json(
                  service.handle_line(
                      "{\"verb\":\"load_netlist\",\"id\":1,\"netlist\":\"a\","
                      "\"circuit\":\"alu\",\"engine\":\"monte-carlo\"}"))
                  .ok);
  const JsonValue submit = result_of(service.handle_line(
      "{\"verb\":\"submit\",\"id\":2,\"request\":{\"verb\":\"analyze\","
      "\"id\":3,\"netlist\":\"a\",\"p\":0.5}}"));
  const std::uint64_t job =
      static_cast<std::uint64_t>(submit.at("job").as_number());

  ASSERT_TRUE(
      ServiceResponse::from_json(
          service.handle_line("{\"verb\":\"shutdown\",\"id\":4}"))
          .ok);
  const JsonValue waited = result_of(service.handle_line(
      "{\"verb\":\"wait\",\"id\":5,\"job\":" + std::to_string(job) + "}"));
  EXPECT_EQ(waited.at("state").as_string(), "cancelled");
}

}  // namespace
}  // namespace protest
