// The command-line front end, driven through run_cli().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string_view>

#include "circuits/iscas.hpp"
#include "prob/engine.hpp"
#include "protest/cli.hpp"

namespace protest {
namespace {

/// Writes text to a temp file and returns its path.
class TempFile {
 public:
  TempFile(const std::string& name, const std::string& text)
      : path_(std::string(::testing::TempDir()) + "/" + name) {
    std::ofstream f(path_);
    f << text;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct CliRun {
  int code;
  std::string out, err;
};

CliRun cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The stdout of one run of each analysis command, pinned byte for byte
// (length + FNV-1a 64, recorded before the commands moved from the tool
// facade onto AnalysisSession and the free functions).
TEST(Cli, CommandOutputIsPinned) {
  const struct {
    std::vector<std::string> args;
    std::size_t bytes;
    std::uint64_t hash;
  } pins[] = {
      {{"analyze", "zoo:alu"}, 530, 0xa93db2b28aab98ffull},
      {{"analyze", "zoo:c17", "--json"}, 3'361, 0x42fdc3647bf1d786ull},
      {{"optimize", "zoo:c17", "--json", "--sweeps", "2"}, 468,
       0x859881a2181cd077ull},
      {{"simulate", "zoo:alu", "--patterns", "256"}, 134,
       0x8ec830efbe072f53ull},
  };
  for (const auto& p : pins) {
    const CliRun r = cli(p.args);
    EXPECT_EQ(r.code, 0) << p.args[0] << ": " << r.err;
    EXPECT_EQ(r.out.size(), p.bytes) << p.args[0] << ":\n" << r.out;
    EXPECT_EQ(fnv1a64(r.out), p.hash) << p.args[0] << ":\n" << r.out;
  }
}

// Every unsigned flag reads through one parser: decimal digits only, in
// the flag's range, so a sign, a suffix or a value past the target type
// is a usage error (2) instead of a wrapped or truncated number.
TEST(Cli, UnsignedFlagExitCodes) {
  const struct {
    std::vector<std::string> args;
    int code;
  } cases[] = {
      // --patterns: "-1" used to wrap to SIZE_MAX patterns.
      {{"simulate", "zoo:c17", "--patterns", "-1"}, 2},
      {{"simulate", "zoo:c17", "--patterns", "18446744073709551616"}, 2},
      {{"simulate", "zoo:c17", "--patterns", "64x"}, 2},
      {{"simulate", "zoo:c17", "--patterns", "+64"}, 2},
      {{"simulate", "zoo:c17", "--patterns", ""}, 2},
      {{"simulate", "zoo:c17", "--patterns", "64"}, 0},
      // --seed spans uint64.
      {{"simulate", "zoo:c17", "--patterns", "64", "--seed", "-1"}, 2},
      {{"simulate", "zoo:c17", "--patterns", "64", "--seed",
        "18446744073709551615"},
       0},
      // --sweeps: 2^32 used to truncate to 0 sweeps, "-1" to 2^32 - 1.
      {{"optimize", "zoo:c17", "--sweeps", "4294967296"}, 2},
      {{"optimize", "zoo:c17", "--sweeps", "-1"}, 2},
      {{"optimize", "zoo:c17", "--sweeps", "0"}, 0},
      // --n spans uint64.
      {{"optimize", "zoo:c17", "--sweeps", "0", "--n", "-1"}, 2},
      {{"optimize", "zoo:c17", "--sweeps", "0", "--n",
        "18446744073709551616"},
       2},
      {{"optimize", "zoo:c17", "--sweeps", "0", "--n",
        "18446744073709551615"},
       0},
      // --cap spans size_t.
      {{"serve", "--cap", "-1"}, 2},
      {{"serve", "--cap", "18446744073709551616"}, 2},
      // The flags guarded before keep their bounds (the serve flags' are
      // checked in ServeFlagValidation and SupervisedServeFlagValidation).
      {{"analyze", "zoo:c17", "--threads", "1025"}, 2},
      {{"analyze", "zoo:c17", "--threads", "1024x"}, 2},
      {{"fuzz", "--circuits", "0"}, 2},
      {{"fuzz", "--circuits", "1000001"}, 2},
      {{"analyze", "zoo:c17", "--deadline-ms", "9007199254740993"}, 2},
      {{"analyze", "zoo:c17", "--deadline-ms", "9007199254740992"}, 0},
  };
  for (const auto& c : cases) {
    std::string line;
    for (const std::string& arg : c.args) line += arg + ' ';
    const CliRun r = cli(c.args);
    EXPECT_EQ(r.code, c.code) << line << "\n" << r.err;
    if (c.code == 2) {
      EXPECT_NE(r.err.find("error:"), std::string::npos) << line;
    }
  }
}

// A valid value for every flag of the CLI (empty for a switch).
const std::map<std::string, std::string> kFlagValues = {
    {"--p", "0.5"}, {"--d", "0.9"}, {"--e", "0.9"}, {"--n", "100"},
    {"--sweeps", "1"}, {"--patterns", "64"}, {"--seed", "7"},
    {"--engine", "naive"}, {"--json", ""}, {"--artifacts", "scoap"},
    {"--threads", "1"}, {"--deadline-ms", "60000"},
    {"--passes", "structure"}, {"--faults", ""}, {"--cap", "4"},
    {"--inflight", "2"}, {"--port", "0"}, {"--workers", "2"},
    {"--heartbeat-ms", "100"}, {"--max-restarts", "3"},
    {"--fault-inject", "crash@analyze"}, {"--quick", ""},
    {"--circuits", "1"}, {"--alpha", "0.01"}, {"--data", "."},
    {"--corpus", "."}, {"--inject", ""}, {"--replay", "repro.json"},
};

// Each command's flags, written out by what each command reads, and a
// flag of its own with a bad value: appended last, it stops the run with a
// usage error of its own once every earlier flag has been accepted.
const struct {
  std::vector<std::string> command;  ///< the command and its <file>
  std::vector<std::string> flags;
  std::vector<std::string> stop;
} kCommandFlags[] = {
    {{"analyze", "zoo:c17"},
     {"--p", "--d", "--e", "--seed", "--engine", "--deadline-ms",
      "--artifacts", "--json", "--threads"},
     {"--p", "2"}},
    {{"scan", "zoo:c17"},
     {"--p", "--d", "--e", "--seed", "--engine", "--deadline-ms",
      "--artifacts", "--json", "--threads"},
     {"--p", "2"}},
    {{"optimize", "zoo:c17"},
     {"--d", "--e", "--n", "--sweeps", "--seed", "--engine", "--deadline-ms",
      "--json", "--threads"},
     {"--d", "0"}},
    {{"simulate", "zoo:c17"}, {"--p", "--patterns", "--seed"}, {"--p", "2"}},
    {{"lint", "zoo:c17"}, {"--p", "--json", "--passes", "--faults"},
     {"--p", "2"}},
    {{"serve"},
     {"--threads", "--cap", "--inflight", "--port", "--workers",
      "--heartbeat-ms", "--max-restarts", "--fault-inject"},
     {"--cap", "-1"}},
    {{"__serve-worker"}, {"--threads", "--cap", "--inflight"},
     {"--cap", "-1"}},
    {{"fuzz"},
     {"--patterns", "--seed", "--json", "--threads", "--quick", "--circuits",
      "--alpha", "--data", "--corpus", "--inject", "--replay"},
     {"--circuits", "0"}},
    {{"help"}, {}, {}},
};

std::vector<std::string> with_flag(const std::vector<std::string>& command,
                                   const std::string& flag,
                                   const std::vector<std::string>& stop) {
  std::vector<std::string> args = command;
  args.push_back(flag);
  const std::string& value = kFlagValues.at(flag);
  if (!value.empty()) args.push_back(value);
  args.insert(args.end(), stop.begin(), stop.end());
  return args;
}

// A flag that a command does not read is a usage error naming both, before
// any output: no command silently ignores a flag.
TEST(Cli, FlagOutsideACommandsSetIsAUsageError) {
  // A regression would start a daemon on stdin; an empty one ends it.
  std::istringstream no_requests;
  std::streambuf* const stdin_buf = std::cin.rdbuf(no_requests.rdbuf());
  for (const auto& c : kCommandFlags) {
    for (const auto& entry : kFlagValues) {
      const std::string& flag = entry.first;
      if (std::find(c.flags.begin(), c.flags.end(), flag) != c.flags.end())
        continue;
      const CliRun r = cli(with_flag(c.command, flag, c.stop));
      EXPECT_EQ(r.code, 2) << c.command[0] << " " << flag;
      EXPECT_EQ(r.out, "") << c.command[0] << " " << flag;
      EXPECT_NE(r.err.find(flag + " is not valid for '" + c.command[0] + "'"),
                std::string::npos)
          << c.command[0] << " " << flag << ": " << r.err;
    }
  }
  std::cin.rdbuf(stdin_buf);
}

// Every flag in a command's set passes the check and reaches the next one.
TEST(Cli, FlagInsideACommandsSetIsAccepted) {
  for (const auto& c : kCommandFlags) {
    for (const std::string& flag : c.flags) {
      const CliRun r = cli(with_flag(c.command, flag, c.stop));
      EXPECT_EQ(r.code, 2) << c.command[0] << " " << flag;
      EXPECT_EQ(r.out, "") << c.command[0] << " " << flag;
      EXPECT_EQ(r.err.find("is not valid for"), std::string::npos)
          << c.command[0] << " " << flag << ": " << r.err;
      EXPECT_NE(r.err.find("error: " + c.stop[0] + " must be"),
                std::string::npos)
          << c.command[0] << " " << flag << ": " << r.err;
    }
  }
}

// --p, --d, --e and --alpha are read whole, finite and inside the range the
// library enforces, as is --patterns (at least one), so a bad value stops
// the run before any output.
TEST(Cli, FlagValuesOutsideTheLibrarysRangeAreUsageErrors) {
  const std::vector<std::string> bad[] = {
      {"analyze", "zoo:c17", "--p", "0.3abc"},
      {"analyze", "zoo:c17", "--p", "nan"},
      {"analyze", "zoo:c17", "--p", "inf"},
      {"analyze", "zoo:c17", "--p", " 0.5"},
      {"analyze", "zoo:c17", "--p", "+0.5"},
      {"simulate", "zoo:c17", "--p", "-0"},
      {"analyze", "zoo:c17", "--p", ""},
      {"analyze", "zoo:c17", "--d", "0"},
      {"analyze", "zoo:c17", "--d", "2"},
      {"analyze", "zoo:c17", "--e", "1"},
      {"analyze", "zoo:c17", "--e", "0"},
      {"optimize", "zoo:c17", "--d", "1e400"},
      {"fuzz", "--alpha", "0.5x"},
      {"fuzz", "--alpha", "1"},
      {"simulate", "zoo:c17", "--patterns", "0"},
      {"fuzz", "--patterns", "0"},
  };
  for (const std::vector<std::string>& args : bad) {
    const CliRun r = cli(args);
    EXPECT_EQ(r.code, 2) << args[2] << " " << args.back();
    EXPECT_EQ(r.out, "") << args[2] << " " << args.back();
    EXPECT_NE(r.err.find(args[args.size() - 2] + " must be "),
              std::string::npos)
        << r.err;
  }
  // The closed ends of each range are accepted.
  EXPECT_EQ(cli({"simulate", "zoo:c17", "--p", "1", "--patterns", "16"}).code,
            0);
  EXPECT_EQ(cli({"simulate", "zoo:c17", "--p", "0", "--patterns", "16"}).code,
            0);
  EXPECT_EQ(cli({"analyze", "zoo:c17", "--d", "1", "--e", ".5"}).code, 0);
}

// --replay re-runs the artifact's own spec: every flag but --json is
// rejected, not ignored.
TEST(Cli, ReplayTakesNoFlagButJson) {
  for (const char* flag : {"--seed", "--patterns", "--threads", "--corpus"}) {
    const CliRun r = cli(with_flag({"fuzz", "--replay", "missing.json"}, flag,
                                   {}));
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_EQ(r.out, "") << flag;
    EXPECT_NE(r.err.find(std::string(flag) + " is not valid with it"),
              std::string::npos)
        << r.err;
  }
  // --json passes; the missing artifact is then a runtime error.
  EXPECT_EQ(cli({"fuzz", "--replay", "missing.json", "--json"}).code, 1);
}

TEST(Cli, OversizedPatternCountIsAnErrorNotACrash) {
  // 128 inputs x 2^63 patterns: the pattern word count used to wrap to 0
  // and weighted() wrote past the empty set.
  std::string bench;
  for (int i = 0; i < 128; ++i) bench += "INPUT(i" + std::to_string(i) + ")\n";
  for (int k = 0; k < 64; ++k) {
    bench += "OUTPUT(o" + std::to_string(k) + ")\n";
    bench += "o" + std::to_string(k) + " = AND(i" + std::to_string(2 * k) +
             ", i" + std::to_string(2 * k + 1) + ")\n";
  }
  const TempFile f("wide128.bench", bench);
  const CliRun r =
      cli({"simulate", f.path(), "--patterns", "9223372036854775808"});
  EXPECT_EQ(r.code, 1) << r.err;
  EXPECT_NE(r.err.find("error:"), std::string::npos) << r.err;
  // SIZE_MAX patterns used to round up to an empty set.
  const CliRun most =
      cli({"simulate", "zoo:c17", "--patterns", "18446744073709551615"});
  EXPECT_EQ(most.code, 1) << most.err;
  EXPECT_NE(most.err.find("error:"), std::string::npos) << most.err;
}

TEST(Cli, HelpPrintsUsage) {
  const CliRun r = cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("protest analyze"), std::string::npos);
  EXPECT_NE(r.out.find("protest serve"), std::string::npos);
}

TEST(Cli, ServeFlagValidation) {
  const TempFile f("c17.bench", c17_bench_text());
  // serve's flags are daemon-scoped; per-query flags are rejected rather
  // than silently ignored, and vice versa.
  EXPECT_EQ(cli({"serve", "--json"}).code, 2);
  EXPECT_EQ(cli({"serve", "--engine", "naive"}).code, 2);
  EXPECT_EQ(cli({"serve", "--artifacts", "scoap"}).code, 2);
  EXPECT_EQ(cli({"serve", "--port", "65536"}).code, 2);
  EXPECT_EQ(cli({"serve", "--p", "0.3"}).code, 2);
  EXPECT_EQ(cli({"serve", "--sweeps", "9"}).code, 2);
  EXPECT_EQ(cli({"serve", "--seed", "7"}).code, 2);
  EXPECT_EQ(cli({"analyze", f.path(), "--cap", "4"}).code, 2);
  EXPECT_EQ(cli({"analyze", f.path(), "--port", "9000"}).code, 2);
  // --inflight is serve-only, and its value is capped before narrowing
  // (each slot is a dispatch thread).
  EXPECT_EQ(cli({"analyze", f.path(), "--inflight", "4"}).code, 2);
  EXPECT_EQ(cli({"serve", "--inflight", "1025"}).code, 2);
  EXPECT_EQ(cli({"serve", "--inflight", "-1"}).code, 2);
  EXPECT_EQ(cli({"serve", "--inflight", "many"}).code, 2);
  const CliRun r = cli({"serve", "--wibble"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos);
}

TEST(Cli, SupervisedServeFlagValidation) {
  const TempFile f("c17.bench", c17_bench_text());
  // --workers bounds, and the supervision flags that require it.
  EXPECT_EQ(cli({"serve", "--workers", "0"}).code, 2);
  EXPECT_EQ(cli({"serve", "--workers", "65"}).code, 2);
  EXPECT_EQ(cli({"serve", "--workers", "two"}).code, 2);
  EXPECT_EQ(cli({"serve", "--heartbeat-ms", "100"}).code, 2);
  EXPECT_EQ(cli({"serve", "--max-restarts", "3"}).code, 2);
  EXPECT_EQ(cli({"serve", "--workers", "2", "--heartbeat-ms", "5"}).code, 2);
  EXPECT_EQ(cli({"serve", "--workers", "2", "--heartbeat-ms", "600001"}).code,
            2);
  EXPECT_EQ(cli({"serve", "--workers", "2", "--max-restarts", "1001"}).code,
            2);
  // Supervision flags belong to serve, not to one-shot commands.
  EXPECT_EQ(cli({"analyze", f.path(), "--workers", "2"}).code, 2);
  EXPECT_EQ(cli({"analyze", f.path(), "--fault-inject", "crash@analyze"}).code,
            2);
  // A malformed fault spec is a usage error at startup, never a
  // silently-inert injector.
  const CliRun bad_spec =
      cli({"serve", "--workers", "2", "--fault-inject", "explode@analyze"});
  EXPECT_EQ(bad_spec.code, 2);
  EXPECT_NE(bad_spec.err.find("fault-inject"), std::string::npos);
  EXPECT_EQ(
      cli({"serve", "--workers", "2", "--fault-inject", "crash@analyze:0"})
          .code,
      2);
  // So is a verb the protocol does not have, in-process or scoped to a
  // worker this process never is.  An accepted spec would serve stdin, so
  // an empty one makes a regression fail instead of hang.
  std::istringstream no_requests;
  std::streambuf* const stdin_buf = std::cin.rdbuf(no_requests.rdbuf());
  const CliRun bad_verb = cli({"serve", "--fault-inject", "crash@analyse"});
  EXPECT_EQ(bad_verb.code, 2);
  EXPECT_NE(bad_verb.err.find("unknown verb"), std::string::npos)
      << bad_verb.err;
  EXPECT_EQ(
      cli({"serve", "--workers", "2", "--fault-inject", "w1:crash@analyse"})
          .code,
      2);
  // The TCP loop consults no in-process injector, so a TCP serve takes a
  // fault spec only with --workers.
  const CliRun tcp_inject =
      cli({"serve", "--port", "0", "--fault-inject", "crash@analyze"});
  EXPECT_EQ(tcp_inject.code, 2);
  EXPECT_NE(tcp_inject.err.find("--workers"), std::string::npos)
      << tcp_inject.err;
  std::cin.rdbuf(stdin_buf);
}

TEST(Cli, DeadlineFlagValidation) {
  const TempFile f("c17.bench", c17_bench_text());
  // --deadline-ms bounds a query's wall clock; it belongs to the work
  // commands, not to serve (where budgets arrive per-request) and not to
  // simulate (which has no cancellation checkpoints).
  EXPECT_EQ(cli({"serve", "--deadline-ms", "100"}).code, 2);
  EXPECT_EQ(cli({"simulate", f.path(), "--deadline-ms", "100"}).code, 2);
  EXPECT_EQ(cli({"analyze", f.path(), "--deadline-ms", "0"}).code, 2);
  EXPECT_EQ(cli({"analyze", f.path(), "--deadline-ms", "-1"}).code, 2);
  EXPECT_EQ(cli({"analyze", f.path(), "--deadline-ms", "soon"}).code, 2);
  // A generous budget leaves the result untouched.
  const CliRun r = cli({"analyze", f.path(), "--deadline-ms", "60000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("5 inputs"), std::string::npos);
}

// A budget past the steady clock's range runs to completion: it used to
// wrap into a deadline that had already passed (exit 3).
TEST(Cli, HugeDeadlineBudgetDoesNotTripAtOnce) {
  const CliRun r =
      cli({"analyze", "zoo:c17", "--deadline-ms", "10000000000000"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, AnalyzeBenchFile) {
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"analyze", f.path()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("5 inputs"), std::string::npos);
  EXPECT_NE(r.out.find("required random patterns"), std::string::npos);
  EXPECT_NE(r.out.find("least testable faults"), std::string::npos);
}

TEST(Cli, AnalyzeWithFlags) {
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"analyze", f.path(), "--p", "0.3", "--d", "1.0",
                        "--e", "0.999"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("p = 0.30"), std::string::npos);
  EXPECT_NE(r.out.find("e = 0.999"), std::string::npos);
}

TEST(Cli, AnalyzeDslFileAutodetected) {
  const TempFile f("top.dsl", R"(
    module top(a, b -> y) { y = NAND(a, b) }
    circuit top
  )");
  const CliRun r = cli({"analyze", f.path()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2 inputs"), std::string::npos);
}

TEST(Cli, AnalyzeWithEngineFlag) {
  const TempFile f("c17.bench", c17_bench_text());
  for (const char* engine :
       {"protest", "naive", "exact-bdd", "exact-enum", "monte-carlo"}) {
    const CliRun r = cli({"analyze", f.path(), "--engine", engine});
    EXPECT_EQ(r.code, 0) << engine << ": " << r.err;
    EXPECT_NE(r.out.find(std::string("signal-probability engine: ") + engine),
              std::string::npos)
        << engine;
  }
}

TEST(Cli, ThreadsFlagIsValidatedAndDeterministic) {
  const TempFile f("c17.bench", c17_bench_text());
  // Same numbers at every thread count (the documented guarantee), for
  // both the internally-parallel engine and the default.
  const CliRun serial =
      cli({"analyze", f.path(), "--engine", "monte-carlo", "--threads", "1"});
  EXPECT_EQ(serial.code, 0) << serial.err;
  const CliRun threaded =
      cli({"analyze", f.path(), "--engine", "monte-carlo", "--threads", "4"});
  EXPECT_EQ(threaded.code, 0) << threaded.err;
  EXPECT_EQ(serial.out, threaded.out);
  // Out-of-range values are usage errors (status 2), including "-1"
  // wrapping through stoul and 2^32+1 (which must not truncate to a
  // silently-accepted 1), not a thread-spawn attempt.
  for (const char* bad :
       {"-1", "4294967295", "4294967297", "99999999999999999999"}) {
    const CliRun r = cli({"analyze", f.path(), "--threads", bad});
    EXPECT_EQ(r.code, 2) << bad;
  }
  // simulate never evaluates an engine; --threads there is a usage error.
  const CliRun sim = cli({"simulate", f.path(), "--patterns", "64",
                          "--threads", "2"});
  EXPECT_EQ(sim.code, 2);
}

TEST(Cli, UnknownEngineIsAUsageError) {
  // Status 2 with every registered name on stderr — not a raw exception.
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"analyze", f.path(), "--engine", "bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown engine 'bogus'"), std::string::npos);
  for (const std::string& name : engine_names())
    EXPECT_NE(r.err.find(name), std::string::npos) << name;
}

TEST(Cli, AnalyzeJsonEmitsValidRequestedArtifacts) {
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"analyze", f.path(), "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  for (const char* key : {"\"engine\"", "\"signal_probs\"",
                          "\"detection_probs\"", "\"test_lengths\""})
    EXPECT_NE(r.out.find(key), std::string::npos) << key;
  EXPECT_EQ(r.out.find("\"scoap\""), std::string::npos);
}

TEST(Cli, ArtifactsFlagSelectsJsonContent) {
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"analyze", f.path(), "--json", "--artifacts",
                        "signal_probs,scoap"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"scoap\""), std::string::npos);
  EXPECT_EQ(r.out.find("\"detection_probs\""), std::string::npos);
  EXPECT_EQ(r.out.find("\"test_lengths\""), std::string::npos);
}

TEST(Cli, UnknownArtifactIsAUsageError) {
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r =
      cli({"analyze", f.path(), "--json", "--artifacts", "wibble"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown artifact 'wibble'"), std::string::npos);
  EXPECT_NE(r.err.find("stafan"), std::string::npos);  // lists alternatives
}

TEST(Cli, ArtifactsWithoutJsonIsAUsageError) {
  // The text report has a fixed layout; accepting --artifacts without
  // --json would silently compute-and-drop the requested artifacts.
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"analyze", f.path(), "--artifacts", "scoap"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--artifacts requires --json"), std::string::npos);
}

TEST(Cli, OptimizeJsonReportsTupleAndTestLengths) {
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"optimize", f.path(), "--n", "100", "--sweeps", "1",
                        "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* key :
       {"\"optimized_probs\"", "\"test_length\"", "\"log_objective\""})
    EXPECT_NE(r.out.find(key), std::string::npos) << key;
}

TEST(Cli, ScanSupportsJson) {
  const TempFile f("counter.bench", R"(
INPUT(en)
OUTPUT(out)
q0 = DFF(n0)
n0 = XOR(q0, en)
out = BUFF(q0)
)");
  const CliRun r = cli({"scan", f.path(), "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"signal_probs\""), std::string::npos);
}

TEST(Cli, SimulateRejectsJsonAndArtifacts) {
  const TempFile f("c17.bench", c17_bench_text());
  EXPECT_EQ(cli({"simulate", f.path(), "--patterns", "16", "--json"}).code, 2);
  EXPECT_EQ(cli({"simulate", f.path(), "--patterns", "16", "--artifacts",
                 "scoap"}).code,
            2);
}

TEST(Cli, SimulateRejectsEngineFlag) {
  // simulate never evaluates a probability engine; silently accepting the
  // flag would let users believe it changed the run.
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r =
      cli({"simulate", f.path(), "--patterns", "16", "--engine", "naive"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--engine is not valid for 'simulate'"),
            std::string::npos);
}

TEST(Cli, SimulateReportsCoverage) {
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"simulate", f.path(), "--patterns", "256"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fault coverage after 256 patterns"), std::string::npos);
}

TEST(Cli, OptimizeReducesOrKeepsTestLength) {
  const TempFile f("c17.bench", c17_bench_text());
  const CliRun r = cli({"optimize", f.path(), "--n", "100", "--sweeps", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("optimized input probabilities"), std::string::npos);
  EXPECT_NE(r.out.find("test length"), std::string::npos);
}

TEST(Cli, ScanExtractsAndAnalyzes) {
  const TempFile f("counter.bench", R"(
INPUT(en)
OUTPUT(out)
q0 = DFF(n0)
n0 = XOR(q0, en)
out = BUFF(q0)
)");
  const CliRun r = cli({"scan", f.path()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1 scan cells"), std::string::npos);
  EXPECT_NE(r.out.find("scan-test length"), std::string::npos);
}

TEST(Cli, ErrorsAreReported) {
  EXPECT_EQ(cli({"analyze", "/nonexistent/file.bench"}).code, 2);
  EXPECT_EQ(cli({"frobnicate", "x"}).code, 2);
  EXPECT_EQ(cli({}).code, 2);
  EXPECT_EQ(cli({"analyze"}).code, 2);
  const CliRun r = cli({"analyze", "/nonexistent/file.bench"});
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, BadBenchContentFailsGracefully) {
  const TempFile f("bad.bench", "INPUT(a)\nOUTPUT(y)\ny = WAT(a)\n");
  const CliRun r = cli({"analyze", f.path()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, LintGatesExitCodeOnErrorFindings) {
  const TempFile bad("stuck.bench",
                     "INPUT(a)\nOUTPUT(z)\nc = CONST0()\nz = AND(a, c)\n");
  const CliRun r = cli({"lint", bad.path()});
  EXPECT_EQ(r.code, 1);  // error-severity findings gate the exit code
  EXPECT_NE(r.out.find("stuck at 0"), std::string::npos) << r.out;

  const CliRun clean = cli({"lint", "zoo:c17"});
  EXPECT_EQ(clean.code, 0) << clean.err;
  EXPECT_NE(clean.out.find("lint: 0 error(s)"), std::string::npos);
}

TEST(Cli, LintJsonAndPassSelection) {
  const CliRun r = cli({"lint", "zoo:c17", "--json", "--passes", "structure"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"passes\":[\"structure\"]"), std::string::npos);

  EXPECT_EQ(cli({"lint", "zoo:c17", "--passes", "bogus"}).code, 2);
  EXPECT_EQ(cli({"lint", "zoo:no-such-circuit"}).code, 2);
  // --passes is lint-scoped, engine flags are analysis-scoped.
  EXPECT_EQ(cli({"analyze", "zoo:c17", "--passes", "structure"}).code, 2);
  EXPECT_EQ(cli({"lint", "zoo:c17", "--engine", "naive"}).code, 2);
}

TEST(Cli, LintFaultsFlagRunsFaultPasses) {
  const CliRun r = cli({"lint", "zoo:c17", "--faults", "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"redundant-fault\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"untestable-fault\""), std::string::npos);
  EXPECT_NE(r.out.find("collapsed faults"), std::string::npos);
  // Without the flag the fault passes stay out of the default set.
  const CliRun plain = cli({"lint", "zoo:c17", "--json"});
  EXPECT_EQ(plain.out.find("redundant-fault"), std::string::npos);
  // --faults is lint-scoped.
  EXPECT_EQ(cli({"analyze", "zoo:c17", "--faults"}).code, 2);
}

}  // namespace
}  // namespace protest
