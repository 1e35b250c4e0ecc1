#include "protest/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "analysis/json.hpp"
#include "analysis/table.hpp"
#include "circuits/zoo.hpp"
#include "lint/lint.hpp"
#include "netlist/tech.hpp"
#include "optimize/hill_climb.hpp"
#include "prob/engine.hpp"
#include "protest/service.hpp"
#include "protest/session.hpp"
#include "protest/supervisor.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"
#include "sim/scan.hpp"
#include "testlen/test_length.hpp"
#include "util/cancel.hpp"
#include "validate/fuzz.hpp"

namespace protest {
namespace {

struct Args {
  std::string command;
  std::string file;
  /// The flags given, in order (names from kFlags below).
  std::vector<std::string_view> given;
  bool has(std::string_view flag) const {
    return std::find(given.begin(), given.end(), flag) != given.end();
  }
  std::string engine = "protest";
  std::string artifacts;  ///< comma list for --artifacts
  double p = 0.5;
  double d = 0.98;
  double e = 0.98;
  std::uint64_t n = 10'000;
  unsigned sweeps = 4;
  std::size_t patterns = 1'000;
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< --threads: 0 = all hardware threads, 1 = serial
  std::size_t cap = 8;   ///< --cap: serve's resident-session bound
  unsigned port = 0;     ///< --port: serve over TCP instead of stdin/stdout
  /// --inflight: serve's pipelined dispatch slots (0 = serial, the
  /// default; N = out-of-order responses with reads stalling at N).
  std::size_t inflight = 0;
  /// --workers: supervised multi-process serve (crash-isolated worker
  /// processes behind a correlating router; protest/supervisor.hpp).
  unsigned workers = 0;
  std::uint64_t heartbeat_ms = 500;  ///< --heartbeat-ms: worker ping cadence
  unsigned max_restarts = 5;  ///< --max-restarts: failures before abandon
  std::string fault_spec;  ///< --fault-inject: deterministic fault script
  /// --deadline-ms: client-side wall-clock budget for analyze/optimize/
  /// scan — the work is cancelled at its next checkpoint past it.
  std::uint64_t deadline_ms = 0;
  /// --passes: comma list of lint pass ids (empty = all).
  std::vector<std::string> lint_passes;
  // fuzz flags (the differential validation harness, src/validate).
  std::size_t circuits = 0;      ///< --circuits: random-circuit count
  double alpha = 1e-6;           ///< --alpha: aggregate false-positive budget
  std::string corpus_dir;        ///< --corpus: repro artifacts land here
  std::string replay_file;       ///< --replay: re-run one repro artifact
  std::string data_dir;          ///< --data: fixed .bench corpus directory
};

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Comma-separated artifact names -> request.  Naming an artifact opts in;
/// artifacts not named are off (signal probabilities are always on — they
/// are the base of everything else).
AnalysisRequest parse_artifacts(const Args& a, double d, double e) {
  AnalysisRequest req;
  req.d_grid = {d};
  req.e_grid = {e};
  if (!a.has("--artifacts")) {
    req.test_lengths = true;  // the CLI default: the classic report set
    return req;
  }
  // Names resolve through the same artifact_name_table() the service's
  // JSON decoder uses — one vocabulary for both surfaces.
  req.observability = false;
  req.detection_probs = false;
  std::stringstream ss(a.artifacts);
  std::string name;
  while (std::getline(ss, name, ',')) {
    if (!set_artifact(req, name))
      throw UsageError("unknown artifact '" + name +
                       "' (available: " + known_artifact_names() + ")");
  }
  return req;
}

/// One flag's value text, read through the flag's range check.
struct FlagValue {
  std::string_view flag;
  const std::string& text;

  /// Decimal digits only (no sign, blank or exponent, so "-1" cannot
  /// wrap) and within [lo, hi], checked before the caller narrows it.
  std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) const {
    std::uint64_t v = 0;
    const char* const end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || stop != end || ec != std::errc{} || v < lo || v > hi)
      throw UsageError(std::string(flag) + " must be an integer between " +
                       std::to_string(lo) + " and " + std::to_string(hi));
    return v;
  }

  /// The whole text is one finite number (std::from_chars: no blank,
  /// suffix or locale) in [0,1], with 0 and 1 themselves allowed as marked
  /// ("-0" is not, or the report would print it as -0.00).
  double probability(bool zero_ok, bool one_ok) const {
    double v = 0.0;
    const char* const end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || stop != end || ec != std::errc{} ||
        !(v >= 0.0 && v <= 1.0) || std::signbit(v) ||
        (v == 0.0 && !zero_ok) || (v == 1.0 && !one_ok))
      throw UsageError(std::string(flag) + " must be a number in " +
                       (zero_ok ? "[0," : "(0,") + (one_ok ? "1]" : "1)"));
    return v;
  }
};

/// The commands, one bit each in FlagSpec::commands.
enum : unsigned {
  kAnalyze = 1u << 0,
  kOptimize = 1u << 1,
  kSimulate = 1u << 2,
  kLint = 1u << 3,
  kScan = 1u << 4,
  kServe = 1u << 5,
  kFuzz = 1u << 6,
  kHelp = 1u << 7,
  kServeWorker = 1u << 8,
};

struct CommandSpec {
  std::string_view name;
  unsigned bit;
  bool file;  ///< takes a <file> operand
};

/// In synopsis order.  `__serve-worker` is the hidden child-process entry
/// of the supervised serve (a single-process daemon on stdin/stdout,
/// fault-armable from the environment); the synopsis leaves it out.
constexpr CommandSpec kCommands[] = {
    {"analyze", kAnalyze, true},   {"optimize", kOptimize, true},
    {"simulate", kSimulate, true}, {"lint", kLint, true},
    {"scan", kScan, true},         {"serve", kServe, false},
    {"fuzz", kFuzz, false},        {"help", kHelp, false},
    {"__serve-worker", kServeWorker, false},
};

/// One row per flag: the name of its value in the synopsis (empty for a
/// switch), the commands that read it, and where its value goes (null for
/// a switch, which Args::has answers).  A command given a flag it does not
/// read is a usage error, never a silently ignored flag.
struct FlagSpec {
  std::string_view name;
  std::string_view value;
  unsigned commands;
  void (*store)(Args&, FlagValue);
};

constexpr std::uint64_t kUint = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kSize = std::numeric_limits<std::size_t>::max();

constexpr FlagSpec kFlags[] = {
    {"--p", "P", kAnalyze | kScan | kSimulate | kLint,
     [](Args& a, FlagValue v) { a.p = v.probability(true, true); }},
    {"--d", "D", kAnalyze | kScan | kOptimize,
     [](Args& a, FlagValue v) { a.d = v.probability(false, true); }},
    {"--e", "E", kAnalyze | kScan | kOptimize,
     [](Args& a, FlagValue v) { a.e = v.probability(false, false); }},
    {"--n", "N", kOptimize,
     [](Args& a, FlagValue v) { a.n = v.integer(0, kU64); }},
    {"--sweeps", "S", kOptimize,
     [](Args& a, FlagValue v) {
       a.sweeps = static_cast<unsigned>(v.integer(0, kUint));
     }},
    {"--patterns", "N", kSimulate | kFuzz,
     [](Args& a, FlagValue v) { a.patterns = v.integer(1, kSize); }},
    // optimize reads --seed too: it seeds the monte-carlo engine.
    {"--seed", "S", kAnalyze | kScan | kOptimize | kSimulate | kFuzz,
     [](Args& a, FlagValue v) { a.seed = v.integer(0, kU64); }},
    {"--engine", "NAME", kAnalyze | kScan | kOptimize,
     [](Args& a, FlagValue v) { a.engine = v.text; }},
    {"--json", "", kAnalyze | kScan | kOptimize | kLint | kFuzz, nullptr},
    {"--artifacts", "LIST", kAnalyze | kScan,
     [](Args& a, FlagValue v) { a.artifacts = v.text; }},
    // 0 = all hardware threads; each is a worker thread, so bounded.
    {"--threads", "T",
     kAnalyze | kScan | kOptimize | kServe | kServeWorker | kFuzz,
     [](Args& a, FlagValue v) {
       a.threads = static_cast<unsigned>(v.integer(0, 1024));
     }},
    // The wire protocol's deadline_ms range (at most 2^53).
    {"--deadline-ms", "MS", kAnalyze | kScan | kOptimize,
     [](Args& a, FlagValue v) {
       a.deadline_ms = v.integer(1, 9007199254740992ull);
     }},
    {"--passes", "LIST", kLint,
     [](Args& a, FlagValue v) {
       std::stringstream ss(v.text);
       std::string name;
       while (std::getline(ss, name, ',')) a.lint_passes.push_back(name);
     }},
    {"--faults", "", kLint, nullptr},
    {"--cap", "N", kServe | kServeWorker,
     [](Args& a, FlagValue v) { a.cap = v.integer(0, kSize); }},
    // 0 = serial dispatch; each slot is a dispatch thread.
    {"--inflight", "N", kServe | kServeWorker,
     [](Args& a, FlagValue v) { a.inflight = v.integer(0, 1024); }},
    {"--port", "PORT", kServe,
     [](Args& a, FlagValue v) {
       a.port = static_cast<unsigned>(v.integer(0, 65535));
     }},
    {"--workers", "N", kServe,
     [](Args& a, FlagValue v) {
       a.workers = static_cast<unsigned>(v.integer(1, 64));
     }},
    {"--heartbeat-ms", "MS", kServe,
     [](Args& a, FlagValue v) { a.heartbeat_ms = v.integer(10, 600000); }},
    {"--max-restarts", "N", kServe,
     [](Args& a, FlagValue v) {
       a.max_restarts = static_cast<unsigned>(v.integer(0, 1000));
     }},
    {"--fault-inject", "SPEC", kServe,
     [](Args& a, FlagValue v) { a.fault_spec = v.text; }},
    {"--quick", "", kFuzz, nullptr},
    {"--circuits", "N", kFuzz,
     [](Args& a, FlagValue v) { a.circuits = v.integer(1, 1'000'000); }},
    {"--alpha", "A", kFuzz,
     [](Args& a, FlagValue v) { a.alpha = v.probability(false, false); }},
    {"--data", "DIR", kFuzz,
     [](Args& a, FlagValue v) { a.data_dir = v.text; }},
    {"--corpus", "DIR", kFuzz,
     [](Args& a, FlagValue v) { a.corpus_dir = v.text; }},
    {"--inject", "", kFuzz, nullptr},
    {"--replay", "FILE", kFuzz,
     [](Args& a, FlagValue v) { a.replay_file = v.text; }},
};

Args parse_args(const std::vector<std::string>& argv) {
  if (argv.empty()) throw UsageError("missing command");
  Args a;
  a.command = argv[0];
  const auto cmd = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const CommandSpec& c) { return c.name == a.command; });
  if (cmd == std::end(kCommands))
    throw UsageError("unknown command '" + a.command + "'");
  std::size_t i = 1;
  if (cmd->file) {
    if (i >= argv.size()) throw UsageError("missing <file> argument");
    a.file = argv[i++];
  }
  while (i < argv.size()) {
    const std::string& flag = argv[i++];
    const auto spec =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const FlagSpec& f) { return f.name == flag; });
    if (spec == std::end(kFlags))
      throw UsageError("unknown flag '" + flag + "'");
    if ((spec->commands & cmd->bit) == 0)
      throw UsageError(flag + " is not valid for '" + a.command + "'");
    a.given.push_back(spec->name);
    if (!spec->store) continue;
    if (i >= argv.size()) throw UsageError("flag " + flag + " needs a value");
    spec->store(a, FlagValue{spec->name, argv[i++]});
  }
  // The text report has a fixed layout; accepting --artifacts there would
  // compute the extra artifacts and then silently not print them.
  if (a.has("--artifacts") && !a.has("--json"))
    throw UsageError("--artifacts requires --json");
  if ((a.has("--heartbeat-ms") || a.has("--max-restarts")) &&
      !a.has("--workers"))
    throw UsageError("--heartbeat-ms/--max-restarts need --workers "
                     "(supervised serve)");
  // The TCP loop has no in-process injector (one shared by its connection
  // threads would race), so the spec would be accepted and never fire.
  if (a.has("--fault-inject") && a.has("--port") && !a.has("--workers"))
    throw UsageError("--fault-inject with --port needs --workers (supervised "
                     "serve); in-process injection serves stdin/stdout only");
  if (a.has("--replay"))
    for (const std::string_view f : a.given)
      if (f != "--replay" && f != "--json")
        throw UsageError("--replay re-runs the artifact's own spec; " +
                         std::string(f) + " is not valid with it");
  const auto engines = engine_names();
  if (std::find(engines.begin(), engines.end(), a.engine) == engines.end()) {
    // Exit status 2 with the registered names on stderr — never a raw
    // exception trace (run_cli turns UsageError into exactly that).
    std::string msg = "unknown engine '" + a.engine + "' (available:";
    for (const std::string& n : engines) msg += " " + n;
    throw UsageError(msg + ")");
  }
  const auto known = lint_pass_names();
  for (const std::string& p : a.lint_passes) {
    if (std::find(known.begin(), known.end(), p) == known.end()) {
      std::string msg = "unknown lint pass '" + p + "' (available:";
      for (const std::string_view k : known) msg += " " + std::string(k);
      throw UsageError(msg + ")");
    }
  }
  return a;
}

SessionOptions session_options(const Args& a) {
  SessionOptions opts;
  opts.engine = a.engine;
  opts.monte_carlo.seed = a.seed;
  opts.parallel.num_threads = a.threads;
  return opts;
}

ServiceConfig service_config(const Args& a) {
  ServiceConfig cfg;
  cfg.max_resident_sessions = a.cap;
  cfg.parallel.num_threads = a.threads;
  cfg.session_defaults = session_options(a);
  return cfg;
}

/// Installs a --deadline-ms budget as the ambient deadline token: the
/// engine's cancellation checkpoints (Monte-Carlo shards, hill-climb
/// coordinates) then throw OperationCancelled(DeadlineExceeded) past it,
/// which run_cli turns into a structured exit.
std::optional<CancelScope> deadline_scope(const Args& a) {
  if (!a.has("--deadline-ms")) return std::nullopt;
  return std::optional<CancelScope>(
      std::in_place,
      CancelToken::with_deadline(
          current_cancel_token(),
          deadline_after(std::chrono::milliseconds(a.deadline_ms))));
}

Netlist load_netlist(const std::string& path) {
  // "zoo:<name>" loads a built-in circuit (incl. the deterministic
  // stress100k tier) without a file on disk — CI leans on this.
  if (path.rfind("zoo:", 0) == 0) {
    try {
      return make_circuit(path.substr(4));
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }
  std::ifstream f(path);
  if (!f) throw UsageError("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return netlist_from_text(ss.str());
}

void print_circuit_summary(std::ostream& out, const Netlist& net) {
  out << "circuit: " << net.inputs().size() << " inputs, "
      << net.outputs().size() << " outputs, " << net.num_gates() << " gates, "
      << transistor_count(net) << " transistors ("
      << gate_equivalents(net) << " GE)\n";
}

void print_engine(std::ostream& out, const AnalysisSession& session) {
  out << "signal-probability engine: " << session.engine().name() << "\n";
}

void print_hard_faults(std::ostream& out, const AnalysisResult& result,
                       std::size_t count) {
  const std::vector<double>& pf = result.detection_probs();
  std::vector<std::size_t> order(result.faults().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pf[a] < pf[b];
  });
  out << "\nleast testable faults:\n";
  for (std::size_t i = 0; i < std::min(count, order.size()); ++i)
    out << "  " << to_string(result.netlist(), result.faults()[order[i]])
        << "  P_detect = " << fmt(pf[order[i]], 6) << "\n";
}

/// Shared by analyze and scan: one session query, JSON or text rendering.
/// The JSON document is the served analyze verb's result payload.
int run_analysis(const Args& a, const Netlist& net, std::ostream& out,
                 const char* testlen_label) {
  AnalysisSession session(net, session_options(a));
  if (!a.has("--json")) {
    // Immediate feedback before the (potentially long) analysis.
    print_circuit_summary(out, net);
    print_engine(out, session);
  }
  const AnalysisRequest req = parse_artifacts(a, a.d, a.e);
  const std::optional<CancelScope> budget = deadline_scope(a);
  const AnalysisResult result =
      session.analyze(uniform_input_probs(net, a.p), req);
  if (a.has("--json")) {
    out << result.to_json() << "\n";
    return 0;
  }
  print_hard_faults(out, result, a.command == "scan" ? 5 : 10);
  const std::uint64_t n = result.test_length(a.d, a.e);
  out << "\n" << testlen_label << " (p = " << fmt(a.p, 2) << ", d = "
      << fmt(a.d, 2) << ", e = " << fmt(a.e, 3) << "): "
      << (n == kInfiniteTestLength ? "unreachable (undetectable faults in F_d)"
                                   : fmt_int(n))
      << "\n";
  return 0;
}

int cmd_analyze(const Args& a, std::ostream& out) {
  const Netlist net = load_netlist(a.file);
  return run_analysis(a, net, out, "required random patterns");
}

int cmd_optimize(const Args& a, std::ostream& out) {
  const Netlist net = load_netlist(a.file);
  SessionOptions popts = session_options(a);
  popts.universe = FaultUniverse::Collapsed;
  AnalysisSession session(net, popts);
  if (!a.has("--json")) {
    // Immediate feedback before the (potentially long) hill climb.
    print_circuit_summary(out, net);
    print_engine(out, session);
  }
  HillClimbOptions opts;
  opts.max_sweeps = a.sweeps;
  const std::optional<CancelScope> budget = deadline_scope(a);
  const HillClimbResult res = optimize_input_probs(session, a.n, opts);

  const std::uint64_t n0 =
      session.analyze(uniform_input_probs(net, 0.5)).test_length(a.d, a.e);
  const std::uint64_t n1 = session.analyze(res.probs).test_length(a.d, a.e);

  if (a.has("--json")) {
    JsonWriter w;
    w.begin_object();
    write_hill_climb(w, session, a.n, res);
    w.key("test_length").begin_object();
    w.key("d").value(a.d);
    w.key("e").value(a.e);
    if (n0 == kInfiniteTestLength) w.key("uniform").null();
    else w.key("uniform").value(n0);
    if (n1 == kInfiniteTestLength) w.key("optimized").null();
    else w.key("optimized").value(n1);
    w.end_object();
    w.end_object();
    out << w.str() << "\n";
    return 0;
  }

  out << "\noptimized input probabilities (k/16 grid):\n";
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out << "  " << net.name_of(inputs[i]) << " = " << fmt(res.probs[i], 4)
        << "\n";
  }
  out << "\ntest length (d = " << fmt(a.d, 2) << ", e = " << fmt(a.e, 3)
      << "): " << (n0 == kInfiniteTestLength ? "inf" : fmt_int(n0)) << " -> "
      << (n1 == kInfiniteTestLength ? "inf" : fmt_int(n1)) << " patterns\n";
  return 0;
}

int cmd_simulate(const Args& a, std::ostream& out) {
  const Netlist net = load_netlist(a.file);
  print_circuit_summary(out, net);
  // No engine runs here: weighted patterns straight into the fault
  // simulator, over the structural fault list analyze reports.
  const std::vector<Fault> faults = structural_fault_list(net);
  const PatternSet ps =
      PatternSet::weighted(uniform_input_probs(net, a.p), a.patterns, a.seed);
  const FaultSimResult res =
      simulate_faults(net, faults, ps, FaultSimMode::FirstDetection);
  out << "fault coverage after " << fmt_int(a.patterns) << " patterns (p = "
      << fmt(a.p, 2) << "): " << fmt(100.0 * res.coverage(), 2) << " % of "
      << faults.size() << " faults\n";
  return 0;
}

int cmd_lint(const Args& a, std::ostream& out) {
  Netlist net = load_netlist(a.file);
  if (!net.finalized()) net.finalize();
  LintOptions opts;
  opts.p = a.p;
  opts.passes = a.lint_passes;
  opts.faults = a.has("--faults");
  const LintReport report = run_lint(net, opts);
  if (a.has("--json")) {
    out << report.to_json() << "\n";
  } else {
    print_circuit_summary(out, net);
    out << report.to_text();
  }
  // Exit 1 on error-severity findings so CI can gate on lint directly.
  return report.errors == 0 ? 0 : 1;
}

int cmd_serve(const Args& a, std::istream& in, std::ostream& out,
              std::ostream& err) {
  const ServeOptions serve_opts{a.inflight};
  // --workers: supervised multi-process serving — the endpoint becomes a
  // router over crash-isolated worker processes instead of an in-process
  // service.  Both speak ServiceEndpoint, so the front ends don't care.
  if (a.has("--workers")) {
    if (!supervisor_supported())
      throw UsageError("--workers is not supported on this platform "
                       "(no POSIX pipes/process spawning)");
    SupervisorOptions sup;
    sup.workers = a.workers;
    sup.max_restarts = a.max_restarts;
    if (a.has("--heartbeat-ms")) {
      sup.heartbeat_interval = std::chrono::milliseconds(a.heartbeat_ms);
      sup.heartbeat_timeout = 5 * sup.heartbeat_interval;
    }
    // Workers keep pipelined lanes even when the front end is serial, so
    // heartbeats answer while a long Monte-Carlo runs.
    sup.worker_inflight = std::max<std::size_t>(a.inflight, 4);
    if (a.has("--fault-inject")) {
      try {
        FaultInjector::parse(a.fault_spec);  // surface typos before spawning
      } catch (const std::invalid_argument& e) {
        throw UsageError(e.what());
      }
      sup.fault_spec = a.fault_spec;
    }
    // Workers inherit the registry/threading shape of this serve.
    sup.worker_args.push_back("--cap");
    sup.worker_args.push_back(std::to_string(a.cap));
    if (a.has("--threads")) {
      sup.worker_args.push_back("--threads");
      sup.worker_args.push_back(std::to_string(a.threads));
    }
    Supervisor supervisor(sup, err);
    if (a.has("--port")) {
      if (!tcp_serve_supported())
        throw UsageError("--port is not supported on this platform "
                         "(no POSIX sockets); use stdin/stdout mode");
      return serve_tcp(supervisor, static_cast<std::uint16_t>(a.port), err,
                       nullptr, serve_opts);
    }
    return serve_ndjson(supervisor, in, out, serve_opts);
  }
  ProtestService service(service_config(a));
  // --fault-inject without --workers arms the injector in-process: the
  // deterministic fault scripts are testable against a plain daemon too.
  FaultInjector injector;
  if (a.has("--fault-inject")) {
    try {
      injector = FaultInjector::parse(a.fault_spec);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }
  if (a.has("--port")) {
    if (!tcp_serve_supported())
      throw UsageError("--port is not supported on this platform "
                       "(no POSIX sockets); use stdin/stdout mode");
    return serve_tcp(service, static_cast<std::uint16_t>(a.port), err,
                     nullptr, serve_opts);
  }
  // NDJSON over stdin/stdout: requests in, responses out, diagnostics on
  // stderr only (stdout must stay machine-parseable).
  return serve_ndjson(service, in, out, serve_opts, &injector);
}

/// The hidden child-process entry behind `serve --workers`: a plain
/// single-process daemon on stdin/stdout whose fault injector (if any)
/// arrives via PROTEST_FAULT_INJECT / PROTEST_WORKER_INDEX.  A malformed
/// env spec is a hard startup error — a typo'd fault script must fail the
/// run, not silently arm nothing.
int cmd_serve_worker(const Args& a, std::istream& in, std::ostream& out) {
  ProtestService service(service_config(a));
  FaultInjector injector = FaultInjector::from_env();
  return serve_ndjson(service, in, out, ServeOptions{a.inflight}, &injector);
}

void print_fuzz_report(const Args& a, const validate::FuzzReport& report,
                       std::ostream& out) {
  if (a.has("--json")) {
    JsonWriter w;
    w.begin_object();
    w.key("circuits").value(report.circuits);
    w.key("checks").value(report.checks);
    w.key("disagreements").begin_array();
    for (const validate::FuzzDisagreement& d : report.disagreements) {
      w.begin_object();
      w.key("check").value(d.check);
      w.key("where").value(d.where);
      w.key("detail").value(d.detail);
      w.end_object();
    }
    w.end_array();
    w.key("artifacts").begin_array();
    for (const std::string& p : report.artifact_paths) w.value(p);
    w.end_array();
    w.key("ok").value(report.ok());
    w.end_object();
    out << w.str() << "\n";
    return;
  }
  out << "fuzz: " << report.circuits << " circuits, " << report.checks
      << " checks, " << report.disagreements.size() << " disagreements\n";
  for (const validate::FuzzDisagreement& d : report.disagreements)
    out << "  DISAGREE " << d.check << " @ " << d.where << ": " << d.detail
        << "\n";
  for (const std::string& p : report.artifact_paths)
    out << "  repro artifact: " << p << "\n";
}

/// The differential validation harness (src/validate): exit 0 on a clean
/// matrix, 1 on any disagreement, 2 on usage errors — so CI can gate on
/// it directly and `--inject` proves the non-zero path end to end.
int cmd_fuzz(const Args& a, std::ostream& out, std::ostream& err) {
  if (a.has("--replay")) {
    const validate::FuzzReport report =
        validate::run_replay(a.replay_file, &err);
    print_fuzz_report(a, report, out);
    return report.ok() ? 0 : 1;
  }
  validate::FuzzOptions opts;
  const bool quick = a.has("--quick");
  opts.num_circuits = a.has("--circuits") ? a.circuits : (quick ? 50 : 200);
  opts.seed = a.seed;
  // --patterns rides the shared flag; the fuzz default is sized so the
  // Hoeffding tolerances stay meaningful at the aggregate alpha.
  opts.mc_patterns =
      a.has("--patterns") ? a.patterns : (quick ? 8'192 : 32'768);
  opts.aggregate_alpha = a.alpha;
  opts.threads = a.has("--threads") && a.threads >= 1 ? a.threads : 2;
  opts.corpus_dir = a.corpus_dir;
  opts.inject_disagreement = a.has("--inject");
  // Fixed-seed real circuits: --data DIR, defaulting to $PROTEST_DATA
  // (the path the test harness exports); absent/empty = generated only.
  std::string data = a.data_dir;
  if (!a.has("--data")) {
    if (const char* env = std::getenv("PROTEST_DATA")) data = env;
  }
  if (!data.empty() && std::filesystem::is_directory(data)) {
    std::vector<std::string> bench;
    for (const auto& entry : std::filesystem::directory_iterator(data))
      if (entry.path().extension() == ".bench")
        bench.push_back(entry.path().string());
    std::sort(bench.begin(), bench.end());  // deterministic corpus order
    opts.bench_files = std::move(bench);
  }
  const validate::FuzzReport report = validate::run_fuzz(opts, &err);
  print_fuzz_report(a, report, out);
  return report.ok() ? 0 : 1;
}

int cmd_scan(const Args& a, std::ostream& out) {
  std::ifstream f(a.file);
  if (!f) throw UsageError("cannot open '" + a.file + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  const ScanDesign design = extract_scan_design(ss.str());
  if (!a.has("--json")) {
    out << "scan extraction: " << design.num_flops() << " scan cells, "
        << design.num_primary_inputs << " primary inputs, "
        << design.num_primary_outputs << " primary outputs\n";
  }
  return run_analysis(a, design.comb, out, "scan-test length");
}

/// The synopsis, one entry per command wrapped at 78 columns, printed
/// from kCommands and kFlags (CI checks the README's CLI block against it).
void print_synopsis(std::ostream& out) {
  for (const CommandSpec& c : kCommands) {
    if (c.name.starts_with("__")) continue;
    std::string line = "protest " + std::string(c.name);
    line.resize(16, ' ');
    line += c.file ? " <file>" : "       ";
    for (const FlagSpec& f : kFlags) {
      if ((f.commands & c.bit) == 0) continue;
      std::string item = " [" + std::string(f.name);
      if (!f.value.empty()) item += " " + std::string(f.value);
      item += "]";
      if (line.size() + item.size() > 78) {
        out << "  " << line << "\n";
        line.assign(23, ' ');
      }
      line += item;
    }
    line.erase(line.find_last_not_of(' ') + 1);
    out << "  " << line << "\n";
  }
}

void print_help(std::ostream& out) {
  out << "protest — probabilistic testability analysis (Wunderlich, DAC'85)\n"
         "\n";
  print_synopsis(out);
  out << "\n"
         "<file>: .bench netlist or module DSL (auto-detected), or\n"
         "zoo:<name> for a built-in circuit (c17, alu, ..., stress100k).\n"
         "lint runs the static analyzer (passes: unused-net, dead-gate,\n"
         "const-gate, duplicate-gate, prob-bounds, structure; --passes\n"
         "selects a subset) and exits 1 on error-severity findings.\n"
         "--faults adds the static fault-analysis passes (redundant-fault,\n"
         "untestable-fault): implication-proven undetectable faults and\n"
         "per-fault detection-probability intervals.\n"
         "--engine selects the signal-probability engine: protest (default),\n"
         "naive, exact-bdd, exact-enum, monte-carlo.\n"
         "--threads T sizes the worker pool (Monte-Carlo pattern shards,\n"
         "optimize neighborhood sweeps); 0 = all hardware threads (default),\n"
         "1 = serial.  Results are bit-identical for every thread count.\n"
         "--json emits the analysis result as JSON instead of text.\n"
         "--artifacts (with --json) is a comma list choosing what to\n"
         "compute/serialize (default: observability, detection_probs,\n"
         "test_lengths), from:\n"
      << known_artifact_names()
      << "\n"
         "serve runs the resident-session daemon: newline-delimited JSON\n"
         "requests on stdin (or TCP with --port), one response line each;\n"
         "--cap bounds resident sessions (LRU-evicted, default 8), and\n"
         "--inflight N enables pipelined dispatch: up to N work requests\n"
         "run concurrently, responses return out of order (correlate by\n"
         "id) and reads stall at N in-flight (backpressure).  Long jobs\n"
         "can also be ticketed explicitly: submit/poll/wait/cancel/jobs\n"
         "verbs (see the README's Serving section for the protocol).\n"
         "--workers N serves SUPERVISED: N crash-isolated worker processes\n"
         "behind a correlating router — netlists place by name hash,\n"
         "crashed workers restart with capped backoff (--max-restarts),\n"
         "wedged workers are detected by heartbeat (--heartbeat-ms) and\n"
         "killed, and every request always gets exactly one structured\n"
         "response (result, worker_lost, or deadline_exceeded).\n"
         "--deadline-ms MS bounds analyze/optimize/scan wall-clock: past\n"
         "the budget the work stops at its next checkpoint, exit 3.\n"
         "--fault-inject SPEC arms deterministic fault injection\n"
         "([w<K>:]crash|stall|garbage@<verb>[:<nth>], comma-separated) in\n"
         "the workers (or in-process in stdin/stdout mode) for testing.\n"
         "fuzz runs the differential validation harness: seeded random\n"
         "circuits (plus every .bench under --data, default $PROTEST_DATA)\n"
         "through every engine, both perturb fidelities, serial vs threaded\n"
         "and the served round trip, with Monte-Carlo tolerances derived\n"
         "from the --alpha false-positive budget (default 1e-6 per run).\n"
         "Disagreements exit 1 and serialize self-contained repro\n"
         "artifacts to --corpus; --replay FILE re-runs one artifact\n"
         "deterministically, and --inject plants a deliberate bug to\n"
         "prove the harness catches it.  --quick is the PR-gating tier\n"
         "(50 circuits); the default grid is the nightly tier (200).\n";
}

}  // namespace

int run_cli(const std::vector<std::string>& argv, std::ostream& out,
            std::ostream& err) {
  try {
    const Args a = parse_args(argv);
    if (a.command == "help") {
      print_help(out);
      return 0;
    }
    if (a.command == "analyze") return cmd_analyze(a, out);
    if (a.command == "optimize") return cmd_optimize(a, out);
    if (a.command == "simulate") return cmd_simulate(a, out);
    if (a.command == "lint") return cmd_lint(a, out);
    if (a.command == "scan") return cmd_scan(a, out);
    if (a.command == "fuzz") return cmd_fuzz(a, out, err);
    if (a.command == "serve") return cmd_serve(a, std::cin, out, err);
    if (a.command == "__serve-worker")
      return cmd_serve_worker(a, std::cin, out);
    throw UsageError("unknown command '" + a.command + "'");
  } catch (const UsageError& e) {
    err << "error: " << e.what() << "\n";
    print_help(err);
    return 2;
  } catch (const OperationCancelled& e) {
    // A --deadline-ms budget expired: the work was cancelled at its next
    // checkpoint.  Exit 3 so scripts can tell "too slow" from "failed".
    err << "error: " << e.what() << " (--deadline-ms budget)\n";
    return 3;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace protest
