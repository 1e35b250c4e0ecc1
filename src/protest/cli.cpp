#include "protest/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
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
  std::string engine = "protest";
  bool engine_set = false;
  bool json = false;
  bool artifacts_set = false;
  std::string artifacts;  ///< comma list for --artifacts
  double p = 0.5;
  double d = 0.98;
  double e = 0.98;
  std::uint64_t n = 10'000;
  unsigned sweeps = 4;
  std::size_t patterns = 1'000;
  std::uint64_t seed = 1;
  unsigned threads = 0;  ///< --threads: 0 = all hardware threads, 1 = serial
  bool threads_set = false;
  std::size_t cap = 8;   ///< --cap: serve's resident-session bound
  bool cap_set = false;
  unsigned port = 0;     ///< --port: serve over TCP instead of stdin/stdout
  bool port_set = false;
  /// --inflight: serve's pipelined dispatch slots (0 = serial, the
  /// default; N = out-of-order responses with reads stalling at N).
  std::size_t inflight = 0;
  bool inflight_set = false;
  /// --workers: supervised multi-process serve (crash-isolated worker
  /// processes behind a correlating router; protest/supervisor.hpp).
  unsigned workers = 0;
  bool workers_set = false;
  std::uint64_t heartbeat_ms = 500;  ///< --heartbeat-ms: worker ping cadence
  bool heartbeat_set = false;
  unsigned max_restarts = 5;  ///< --max-restarts: failures before abandon
  bool max_restarts_set = false;
  std::string fault_spec;  ///< --fault-inject: deterministic fault script
  bool fault_set = false;
  /// --deadline-ms: client-side wall-clock budget for analyze/optimize/
  /// scan — the work is cancelled at its next checkpoint past it.
  std::uint64_t deadline_ms = 0;
  bool deadline_set = false;
  /// Per-query value flags seen (--p/--d/--e/--n/--sweeps/--patterns/
  /// --seed) — rejected by commands that would silently ignore them.
  std::vector<std::string> query_flags;
  /// --passes: comma list of lint pass ids (lint only; empty = all).
  std::vector<std::string> lint_passes;
  bool passes_set = false;
  /// --faults: opt into the static fault-analysis passes (lint only).
  bool lint_faults = false;
  // fuzz-only flags (the differential validation harness, src/validate).
  bool quick = false;            ///< --quick: the PR-gating smoke tier
  std::size_t circuits = 0;      ///< --circuits: random-circuit count
  bool circuits_set = false;
  double alpha = 1e-6;           ///< --alpha: aggregate false-positive budget
  bool alpha_set = false;
  std::string corpus_dir;        ///< --corpus: repro artifacts land here
  bool corpus_set = false;
  std::string replay_file;       ///< --replay: re-run one repro artifact
  bool replay_set = false;
  bool inject = false;           ///< --inject: plant the deliberate bug
  std::string data_dir;          ///< --data: fixed .bench corpus directory
  bool data_set = false;
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
  if (!a.artifacts_set) {
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

/// The value of an unsigned flag: decimal digits only (no sign, blank or
/// exponent, so "-1" cannot wrap) and within [lo, hi], checked before the
/// caller narrows it.
std::uint64_t parse_unsigned(const std::string& flag, const std::string& text,
                             std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || stop != end || ec != std::errc{} || v < lo || v > hi)
    throw UsageError(flag + " must be an integer between " +
                     std::to_string(lo) + " and " + std::to_string(hi));
  return v;
}

Args parse_args(const std::vector<std::string>& argv) {
  if (argv.empty()) throw UsageError("missing command");
  Args a;
  a.command = argv[0];
  std::size_t i = 1;
  // `__serve-worker` is the hidden child-process entry of the supervised
  // serve: a single-process daemon on stdin/stdout, fault-armable from
  // the environment.  It takes flags like serve, never a file.
  const bool is_serve = a.command == "serve" || a.command == "__serve-worker";
  // fuzz generates its own circuits (plus the --data corpus); no <file>.
  const bool is_fuzz = a.command == "fuzz";
  if (a.command != "help" && !is_serve && !is_fuzz) {
    if (i >= argv.size()) throw UsageError("missing <file> argument");
    a.file = argv[i++];
  }
  auto need_value = [&](const std::string& flag) -> std::string {
    if (i >= argv.size()) throw UsageError("flag " + flag + " needs a value");
    return argv[i++];
  };
  constexpr std::uint64_t kUint = std::numeric_limits<unsigned>::max();
  constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kSize = std::numeric_limits<std::size_t>::max();
  while (i < argv.size()) {
    const std::string flag = argv[i++];
    auto unsigned_value = [&](std::uint64_t lo, std::uint64_t hi) {
      return parse_unsigned(flag, need_value(flag), lo, hi);
    };
    try {
      if (flag == "--engine") { a.engine = need_value(flag); a.engine_set = true; }
      else if (flag == "--json") a.json = true;
      else if (flag == "--artifacts") { a.artifacts = need_value(flag); a.artifacts_set = true; }
      else if (flag == "--p") { a.p = std::stod(need_value(flag)); a.query_flags.push_back(flag); }
      else if (flag == "--d") { a.d = std::stod(need_value(flag)); a.query_flags.push_back(flag); }
      else if (flag == "--e") { a.e = std::stod(need_value(flag)); a.query_flags.push_back(flag); }
      else if (flag == "--n") { a.n = unsigned_value(0, kU64); a.query_flags.push_back(flag); }
      else if (flag == "--sweeps") { a.sweeps = static_cast<unsigned>(unsigned_value(0, kUint)); a.query_flags.push_back(flag); }
      else if (flag == "--patterns") { a.patterns = unsigned_value(0, kSize); a.query_flags.push_back(flag); }
      else if (flag == "--seed") { a.seed = unsigned_value(0, kU64); a.query_flags.push_back(flag); }
      else if (flag == "--faults") a.lint_faults = true;
      else if (flag == "--passes") {
        a.passes_set = true;
        std::stringstream ss(need_value(flag));
        std::string name;
        while (std::getline(ss, name, ',')) a.lint_passes.push_back(name);
      }
      else if (flag == "--threads") {
        // 0 = all hardware threads; each is a worker thread, so bounded.
        a.threads = static_cast<unsigned>(unsigned_value(0, 1024));
        a.threads_set = true;
      }
      else if (flag == "--cap") { a.cap = unsigned_value(0, kSize); a.cap_set = true; }
      else if (flag == "--port") {
        a.port = static_cast<unsigned>(unsigned_value(0, 65535));
        a.port_set = true;
      }
      else if (flag == "--inflight") {
        // 0 = serial dispatch; each slot is a dispatch thread.
        a.inflight = unsigned_value(0, 1024);
        a.inflight_set = true;
      }
      else if (flag == "--workers") {
        a.workers = static_cast<unsigned>(unsigned_value(1, 64));
        a.workers_set = true;
      }
      else if (flag == "--heartbeat-ms") {
        a.heartbeat_ms = unsigned_value(10, 600000);
        a.heartbeat_set = true;
      }
      else if (flag == "--max-restarts") {
        a.max_restarts = static_cast<unsigned>(unsigned_value(0, 1000));
        a.max_restarts_set = true;
      }
      else if (flag == "--fault-inject") {
        a.fault_spec = need_value(flag);
        a.fault_set = true;
      }
      else if (flag == "--quick") a.quick = true;
      else if (flag == "--circuits") {
        a.circuits = unsigned_value(1, 1'000'000);
        a.circuits_set = true;
      }
      else if (flag == "--alpha") {
        a.alpha = std::stod(need_value(flag));
        if (!(a.alpha > 0.0) || !(a.alpha < 1.0))
          throw UsageError("--alpha must be strictly between 0 and 1");
        a.alpha_set = true;
      }
      else if (flag == "--corpus") { a.corpus_dir = need_value(flag); a.corpus_set = true; }
      else if (flag == "--replay") { a.replay_file = need_value(flag); a.replay_set = true; }
      else if (flag == "--inject") a.inject = true;
      else if (flag == "--data") { a.data_dir = need_value(flag); a.data_set = true; }
      else if (flag == "--deadline-ms") {
        // The wire protocol's deadline_ms range (at most 2^53).
        a.deadline_ms = unsigned_value(1, 9007199254740992ull);
        a.deadline_set = true;
      }
      else throw UsageError("unknown flag '" + flag + "'");
    } catch (const std::invalid_argument&) {
      throw UsageError("bad value for flag " + flag);
    } catch (const std::out_of_range&) {
      throw UsageError("bad value for flag " + flag);
    }
  }
  // simulate runs weighted patterns through the fault simulator and never
  // evaluates a probability engine; accepting these flags there would
  // silently ignore them.
  if (a.command == "simulate") {
    if (a.engine_set) throw UsageError("--engine is not valid for 'simulate'");
    if (a.json) throw UsageError("--json is not valid for 'simulate'");
    if (a.artifacts_set)
      throw UsageError("--artifacts is not valid for 'simulate'");
    if (a.threads_set)
      throw UsageError("--threads is not valid for 'simulate'");
  }
  if (a.artifacts_set && a.command == "optimize")
    throw UsageError("--artifacts is not valid for 'optimize'");
  // lint never runs an engine or the analysis pipeline; only --p (the
  // prob-bounds input probability), --json, and --passes apply.
  if (a.command == "lint") {
    if (a.engine_set)
      throw UsageError("--engine is not valid for 'lint' (the static "
                       "passes are engine-independent)");
    if (a.artifacts_set) throw UsageError("--artifacts is not valid for 'lint'");
    if (a.threads_set) throw UsageError("--threads is not valid for 'lint'");
    for (const std::string& f : a.query_flags)
      if (f != "--p") throw UsageError(f + " is not valid for 'lint'");
    const auto known = lint_pass_names();
    for (const std::string& p : a.lint_passes) {
      if (std::find(known.begin(), known.end(), p) == known.end()) {
        std::string msg = "unknown lint pass '" + p + "' (available:";
        for (const std::string_view k : known) msg += " " + std::string(k);
        throw UsageError(msg + ")");
      }
    }
  } else if (a.passes_set) {
    throw UsageError("--passes is only valid for 'lint'");
  } else if (a.lint_faults) {
    throw UsageError("--faults is only valid for 'lint'");
  }
  // fuzz runs EVERY engine by design and derives its tolerances from the
  // statistical oracle — flags that would pick one engine or hand-tune a
  // comparison are rejected, not silently ignored.
  if (is_fuzz) {
    if (a.engine_set)
      throw UsageError("--engine is not valid for 'fuzz' (the harness runs "
                       "every registered engine)");
    if (a.artifacts_set) throw UsageError("--artifacts is not valid for 'fuzz'");
    for (const std::string& f : a.query_flags)
      if (f != "--seed" && f != "--patterns")
        throw UsageError(f + " is not valid for 'fuzz'");
    if (a.deadline_set)
      throw UsageError("--deadline-ms is not valid for 'fuzz'");
    if (a.replay_set &&
        (a.quick || a.circuits_set || a.alpha_set || a.inject || a.data_set))
      throw UsageError("--replay re-runs the artifact's own spec; it takes "
                       "no grid flags");
  } else if (a.quick || a.circuits_set || a.alpha_set || a.corpus_set ||
             a.replay_set || a.inject || a.data_set) {
    throw UsageError("--quick/--circuits/--alpha/--corpus/--replay/--inject/"
                     "--data are only valid for 'fuzz'");
  }
  // serve speaks the JSON protocol by construction and loads netlists per
  // request; every per-query flag would be silently ignored, so all of
  // them are rejected, not just the tracked boolean ones.
  if (is_serve) {
    if (a.engine_set) throw UsageError("--engine is not valid for 'serve' "
                                       "(pick the engine per load_netlist "
                                       "request)");
    if (a.json) throw UsageError("--json is not valid for 'serve'");
    if (a.artifacts_set)
      throw UsageError("--artifacts is not valid for 'serve'");
    if (!a.query_flags.empty())
      throw UsageError(a.query_flags.front() +
                       " is not valid for 'serve' (per-query values travel "
                       "in the JSON requests)");
    if (a.deadline_set)
      throw UsageError("--deadline-ms is not valid for 'serve' (deadlines "
                       "travel per request as the deadline_ms member)");
  } else if (a.cap_set || a.port_set || a.inflight_set) {
    throw UsageError("--cap/--port/--inflight are only valid for 'serve'");
  }
  // Supervision flags configure the router, which only `serve` runs — a
  // worker child is itself single-process (its faults arrive via env).
  if (a.command != "serve" &&
      (a.workers_set || a.heartbeat_set || a.max_restarts_set || a.fault_set))
    throw UsageError("--workers/--heartbeat-ms/--max-restarts/"
                     "--fault-inject are only valid for 'serve'");
  if ((a.heartbeat_set || a.max_restarts_set) && !a.workers_set)
    throw UsageError("--heartbeat-ms/--max-restarts need --workers "
                     "(supervised serve)");
  // The TCP loop has no in-process injector (one shared by its connection
  // threads would race), so the spec would be accepted and never fire.
  if (a.fault_set && a.port_set && !a.workers_set)
    throw UsageError("--fault-inject with --port needs --workers (supervised "
                     "serve); in-process injection serves stdin/stdout only");
  if (a.deadline_set && a.command != "analyze" && a.command != "optimize" &&
      a.command != "scan")
    throw UsageError("--deadline-ms is only valid for "
                     "'analyze'/'optimize'/'scan'");
  // The text report has a fixed layout; accepting --artifacts there would
  // compute the extra artifacts and then silently not print them.
  if (a.artifacts_set && !a.json)
    throw UsageError("--artifacts requires --json");
  const auto engines = engine_names();
  if (std::find(engines.begin(), engines.end(), a.engine) == engines.end()) {
    // Exit status 2 with the registered names on stderr — never a raw
    // exception trace (run_cli turns UsageError into exactly that).
    std::string msg = "unknown engine '" + a.engine + "' (available:";
    for (const std::string& n : engines) msg += " " + n;
    throw UsageError(msg + ")");
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
  if (!a.deadline_set) return std::nullopt;
  return std::optional<CancelScope>(
      std::in_place,
      CancelToken::with_deadline(
          current_cancel_token(),
          std::chrono::steady_clock::now() +
              std::chrono::milliseconds(a.deadline_ms)));
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
  if (!a.json) {
    // Immediate feedback before the (potentially long) analysis.
    print_circuit_summary(out, net);
    print_engine(out, session);
  }
  const AnalysisRequest req = parse_artifacts(a, a.d, a.e);
  const std::optional<CancelScope> budget = deadline_scope(a);
  const AnalysisResult result =
      session.analyze(uniform_input_probs(net, a.p), req);
  if (a.json) {
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
  if (!a.json) {
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

  if (a.json) {
    JsonWriter w;
    w.begin_object();
    w.key("engine").value(session.engine().name());
    w.key("n_parameter").value(a.n);
    w.key("log_objective").value(res.log_objective);
    w.key("evaluations").value(res.evaluations);
    w.key("sweeps").value(static_cast<std::uint64_t>(res.sweeps));
    w.key("optimized_probs").begin_array();
    const auto inputs = net.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      w.begin_object();
      w.key("input").value(net.name_of(inputs[i]));
      w.key("p").value(res.probs[i]);
      w.end_object();
    }
    w.end_array();
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
  opts.faults = a.lint_faults;
  const LintReport report = run_lint(net, opts);
  if (a.json) {
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
  ServeOptions serve_opts;
  serve_opts.max_inflight = a.inflight;
  // --workers: supervised multi-process serving — the endpoint becomes a
  // router over crash-isolated worker processes instead of an in-process
  // service.  Both speak ServiceEndpoint, so the front ends don't care.
  if (a.workers_set) {
    if (!supervisor_supported())
      throw UsageError("--workers is not supported on this platform "
                       "(no POSIX pipes/process spawning)");
    SupervisorOptions sup;
    sup.workers = a.workers;
    sup.max_restarts = a.max_restarts;
    if (a.heartbeat_set) {
      sup.heartbeat_interval = std::chrono::milliseconds(a.heartbeat_ms);
      sup.heartbeat_timeout = 5 * sup.heartbeat_interval;
    }
    // Workers keep pipelined lanes even when the front end is serial, so
    // heartbeats answer while a long Monte-Carlo runs.
    sup.worker_inflight = std::max<std::size_t>(a.inflight, 4);
    if (a.fault_set) {
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
    if (a.threads_set) {
      sup.worker_args.push_back("--threads");
      sup.worker_args.push_back(std::to_string(a.threads));
    }
    Supervisor supervisor(sup, err);
    if (a.port_set) {
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
  if (a.fault_set) {
    try {
      injector = FaultInjector::parse(a.fault_spec);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    serve_opts.injector = &injector;
  }
  if (a.port_set) {
    if (!tcp_serve_supported())
      throw UsageError("--port is not supported on this platform "
                       "(no POSIX sockets); use stdin/stdout mode");
    return serve_tcp(service, static_cast<std::uint16_t>(a.port), err,
                     nullptr, serve_opts);
  }
  // NDJSON over stdin/stdout: requests in, responses out, diagnostics on
  // stderr only (stdout must stay machine-parseable).
  return serve_ndjson(service, in, out, serve_opts);
}

/// The hidden child-process entry behind `serve --workers`: a plain
/// single-process daemon on stdin/stdout whose fault injector (if any)
/// arrives via PROTEST_FAULT_INJECT / PROTEST_WORKER_INDEX.  A malformed
/// env spec is a hard startup error — a typo'd fault script must fail the
/// run, not silently arm nothing.
int cmd_serve_worker(const Args& a, std::istream& in, std::ostream& out) {
  ProtestService service(service_config(a));
  FaultInjector injector = FaultInjector::from_env();
  ServeOptions serve_opts;
  serve_opts.max_inflight = a.inflight;
  serve_opts.injector = injector.armed() ? &injector : nullptr;
  return serve_ndjson(service, in, out, serve_opts);
}

void print_fuzz_report(const Args& a, const validate::FuzzReport& report,
                       std::ostream& out) {
  if (a.json) {
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
  if (a.replay_set) {
    const validate::FuzzReport report =
        validate::run_replay(a.replay_file, &err);
    print_fuzz_report(a, report, out);
    return report.ok() ? 0 : 1;
  }
  validate::FuzzOptions opts;
  opts.num_circuits = a.circuits_set ? a.circuits : (a.quick ? 50 : 200);
  opts.seed = a.seed;
  // --patterns rides the shared flag; the fuzz default is sized so the
  // Hoeffding tolerances stay meaningful at the aggregate alpha.
  const bool patterns_set =
      std::find(a.query_flags.begin(), a.query_flags.end(), "--patterns") !=
      a.query_flags.end();
  opts.mc_patterns = patterns_set ? a.patterns : (a.quick ? 8'192 : 32'768);
  opts.aggregate_alpha = a.alpha;
  opts.threads = a.threads_set && a.threads >= 1 ? a.threads : 2;
  opts.corpus_dir = a.corpus_dir;
  opts.inject_disagreement = a.inject;
  // Fixed-seed real circuits: --data DIR, defaulting to $PROTEST_DATA
  // (the path the test harness exports); absent/empty = generated only.
  std::string data = a.data_dir;
  if (!a.data_set) {
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
  if (!a.json) {
    out << "scan extraction: " << design.num_flops() << " scan cells, "
        << design.num_primary_inputs << " primary inputs, "
        << design.num_primary_outputs << " primary outputs\n";
  }
  return run_analysis(a, design.comb, out, "scan-test length");
}

void print_help(std::ostream& out) {
  out << "protest — probabilistic testability analysis (Wunderlich, DAC'85)\n"
         "\n"
         "  protest analyze  <file> [--p P] [--d D] [--e E] [--engine E]\n"
         "                          [--json] [--artifacts LIST] [--threads T]\n"
         "                          [--deadline-ms MS]\n"
         "  protest optimize <file> [--n N] [--sweeps S] [--d D] [--e E] "
         "[--engine E] [--json]\n"
         "                          [--threads T] [--deadline-ms MS]\n"
         "  protest simulate <file> --patterns N [--p P] [--seed S]\n"
         "  protest lint     <file> [--p P] [--passes LIST] [--faults] "
         "[--json]\n"
         "  protest scan     <file> [--p P] [--d D] [--e E] [--engine E]\n"
         "                          [--json] [--artifacts LIST] [--threads T]\n"
         "                          [--deadline-ms MS]\n"
         "  protest serve           [--cap N] [--threads T] [--port P] "
         "[--inflight N]\n"
         "                          [--workers N] [--heartbeat-ms MS] "
         "[--max-restarts N]\n"
         "                          [--fault-inject SPEC]\n"
         "  protest fuzz            [--quick] [--circuits N] [--seed S]\n"
         "                          [--patterns N] [--alpha A] [--threads T]\n"
         "                          [--data DIR] [--corpus DIR] [--inject]\n"
         "                          [--replay FILE] [--json]\n"
         "  protest help\n"
         "\n"
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
         "compute/serialize:\n"
         "signal_probs, observability, detection_probs, test_lengths,\n"
         "scoap, stafan (default: observability, detection_probs,\n"
         "test_lengths).\n"
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
