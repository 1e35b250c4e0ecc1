#include "validate/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/json.hpp"
#include "bdd/bdd.hpp"
#include "lint/fault_analyze.hpp"
#include "lint/prob_bounds.hpp"
#include "netlist/bench_io.hpp"
#include "observe/miter.hpp"
#include "prob/engine.hpp"
#include "protest/service.hpp"
#include "protest/session.hpp"
#include "sim/fault.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"
#include "util/executor.hpp"
#include "validate/recheck.hpp"
#include "validate/stats.hpp"

namespace protest::validate {
namespace {

// Deterministic derivation stream for the grid (splitmix64): every spec
// field is a pure function of (master seed, position), independent of
// platform library differences.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double unit_draw(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Exact doubles only: the determinism legs promise bit-identical
/// results, so any difference at all is a finding.
bool same_vector(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// Bit-identical probabilities and equal selections (both null, or equal
/// conditioning sets).
bool same_evaluation(const Evaluation& a, const Evaluation& b) {
  if (!same_vector(a.probs, b.probs)) return false;
  if (!a.selection || !b.selection) return !a.selection && !b.selection;
  return *a.selection == *b.selection;
}

/// Runs fn(t) for t in [0, n) on n threads released together; returns each
/// thread's exception message, empty when it returned normally.
std::vector<std::string> run_together(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::string> errors(n);
  std::latch start(static_cast<std::ptrdiff_t>(n));
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < n; ++t)
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        try {
          fn(t);
        } catch (const std::exception& e) {
          errors[t] = e.what();
        }
      });
  }
  return errors;
}

/// Runs every differential leg for one spec, appending disagreements
/// (each carrying the spec) and check counts to the report.
class CircuitChecker {
 public:
  CircuitChecker(const FuzzCircuitSpec& spec, FuzzReport& report)
      : spec_(spec), report_(report) {}

  void run() {
    Netlist net;
    try {
      net = spec_.from_bench ? read_bench_string(spec_.bench_text)
                             : make_random_circuit(spec_.gen);
    } catch (const std::exception& e) {
      disagree("build", spec_.name,
               std::string("circuit construction failed: ") + e.what());
      return;
    }
    if (spec_.input_probs.size() != net.inputs().size()) {
      disagree("build", spec_.name,
               "spec carries " + std::to_string(spec_.input_probs.size()) +
                   " input probs for " +
                   std::to_string(net.inputs().size()) + " inputs");
      return;
    }
    check_engines(net);
    check_fault_threads(net);
    check_sessions(net);
    check_serve(net);
    check_faults(net);
  }

 private:
  void disagree(std::string check, std::string where, std::string detail) {
    report_.disagreements.push_back(
        {std::move(check), std::move(where), std::move(detail), spec_});
  }

  void count(std::size_t n = 1) { report_.checks += n; }

  EngineConfig engine_config(unsigned threads) const {
    EngineConfig cfg;
    cfg.monte_carlo.num_patterns = spec_.mc_patterns;
    cfg.monte_carlo.seed = spec_.mc_seed;
    cfg.monte_carlo.parallel.num_threads = threads;
    return cfg;
  }

  // Engine matrix: static-bound containment for every engine, exact
  // engines against each other, Monte-Carlo against exact within the
  // statistical oracle, and the bit-identity legs (concurrent callers on
  // one engine, the perturbed selection, serial vs threaded Monte-Carlo).
  void check_engines(const Netlist& net) {
    const std::span<const double> tuple(spec_.input_probs);
    const SignalProbBounds bounds = signal_prob_bounds(net, tuple);
    const double mc_tol =
        hoeffding_tolerance(spec_.mc_patterns, spec_.per_net_alpha) +
        mc_threshold_bias(net.inputs().size());

    std::map<std::string, std::vector<double>> estimates;
    for (const std::string& name : engine_names()) {
      if (name == "exact-enum" && net.inputs().size() > 24) continue;
      std::unique_ptr<SignalProbEngine> engine;
      std::vector<double> est;
      try {
        engine = make_engine(name, net, engine_config(1));
        est = engine->signal_probs(tuple);
      } catch (const BddLimitExceeded&) {
        continue;  // circuit too wide for the BDD oracle; other legs run
      }

      // Proven-interval containment (lint/prob_bounds): sound for every
      // engine, statistically widened for the sampled one.
      const double tol = name == "monte-carlo" ? mc_tol : 1e-9;
      for (NodeId n = 0; n < net.size(); ++n) {
        count();
        if (est[n] < bounds.lo[n] - tol || est[n] > bounds.hi[n] + tol) {
          disagree("bounds_containment:" + name, net.name_of(n),
                   "estimate " + format_double(est[n]) +
                       " escapes proven interval [" +
                       format_double(bounds.lo[n]) + ", " +
                       format_double(bounds.hi[n]) + "] + tolerance " +
                       format_double(tol));
        }
      }

      check_concurrent(net, name, engine->evaluate(tuple));
      if (name == "protest") check_perturb_selection(*engine);

      estimates.emplace(name, std::move(est));
    }

    const auto ref_it = estimates.find("exact-bdd");
    if (ref_it == estimates.end()) return;
    std::vector<double> ref = ref_it->second;
    if (spec_.inject) {
      // The deliberate bug: shift one reference value so the harness has
      // a real disagreement to catch, report, and replay.
      const NodeId victim = static_cast<NodeId>(net.size() - 1);
      ref[victim] = ref[victim] <= 0.5 ? ref[victim] + 0.25
                                       : ref[victim] - 0.25;
    }

    if (const auto it = estimates.find("exact-enum"); it != estimates.end()) {
      for (NodeId n = 0; n < net.size(); ++n) {
        count();
        if (!(std::abs(it->second[n] - ref[n]) <= 1e-9)) {
          disagree("enum_vs_bdd", net.name_of(n),
                   "exact-enum " + format_double(it->second[n]) +
                       " vs exact-bdd " + format_double(ref[n]));
        }
      }
    }

    if (const auto it = estimates.find("monte-carlo"); it != estimates.end()) {
      for (NodeId n = 0; n < net.size(); ++n) {
        count();
        if (!(std::abs(it->second[n] - ref[n]) <= mc_tol)) {
          disagree("mc_vs_exact", net.name_of(n),
                   "monte-carlo " + format_double(it->second[n]) +
                       " vs exact " + format_double(ref[n]) +
                       " exceeds Hoeffding tolerance " +
                       format_double(mc_tol) + " (n=" +
                       std::to_string(spec_.mc_patterns) + ", alpha=" +
                       format_double(spec_.per_net_alpha) + ")");
        }
      }

      // Sharded determinism: N worker threads, bit-identical.
      count();
      const auto threaded = make_engine("monte-carlo", net,
                                        engine_config(spec_.threads));
      if (!same_vector(threaded->signal_probs(tuple), it->second))
        disagree("mc_serial_vs_threads", spec_.name,
                 "monte-carlo with " + std::to_string(spec_.threads) +
                     " threads differs from serial");
    }
  }

  // Determinism under sharing: at least two threads evaluate the tuple at
  // once on one fresh engine (so they also race its first-use plan
  // build), and each result must equal the serial one bit for bit,
  // conditioning sets included.
  void check_concurrent(const Netlist& net, const std::string& name,
                        const Evaluation& serial) {
    const auto engine = make_engine(name, net, engine_config(1));
    const std::size_t n = std::max(spec_.threads, 2u);
    std::vector<Evaluation> got(n);
    const std::vector<std::string> errors = run_together(n, [&](std::size_t t) {
      got[t] = engine->evaluate(spec_.input_probs);
    });
    for (std::size_t t = 0; t < n; ++t) {
      count();
      if (!errors[t].empty() || !same_evaluation(got[t], serial))
        disagree("concurrent_vs_serial:" + name, spec_.name,
                 "thread " + std::to_string(t) + " of " + std::to_string(n) +
                     (errors[t].empty() ? " differs from the serial evaluation"
                                        : " threw: " + errors[t]));
    }
  }

  // Determinism of the fault sweep's fan-out: at least two threads
  // analyze the spec's tuple at once against one shared context on one
  // executor, over the fault list repeated to span several sweep tasks,
  // and each result must equal the serial one-shot field for field.
  void check_fault_threads(const Netlist& net) {
    const std::vector<Fault> list = structural_fault_list(net);
    if (list.empty()) return;
    std::vector<Fault> faults;
    while (faults.size() < 2048)
      faults.insert(faults.end(), list.begin(), list.end());
    FaultAnalyzeOptions fo;
    fo.input_probs = spec_.input_probs;
    const FaultAnalysis serial = analyze_faults(net, faults, fo);
    const FaultContext ctx(net, fo);
    const unsigned n = std::max(spec_.threads, 2u);
    Executor exec(n);
    std::vector<FaultAnalysis> got(n);
    const std::vector<std::string> errors = run_together(n, [&](std::size_t t) {
      got[t] = analyze_faults(ctx, faults, fo, &exec);
    });
    for (unsigned t = 0; t < n; ++t) {
      count();
      if (!errors[t].empty() || got[t] != serial)
        disagree("fault_bounds_threads", spec_.name,
                 "thread " + std::to_string(t) + " of " + std::to_string(n) +
                     (errors[t].empty()
                          ? " on a " + std::to_string(n) +
                                "-worker executor differs from the serial "
                                "analysis"
                          : " threw: " + errors[t]));
    }
  }

  // The Selection an exact perturb hands back is the base's with the
  // changed input's fanout cone re-selected; it must be exactly what a
  // full evaluation of the perturbed tuple selects.
  void check_perturb_selection(const SignalProbEngine& engine) {
    std::vector<double> perturbed = spec_.input_probs;
    perturbed[spec_.perturb_index] = spec_.perturb_p;
    const Evaluation moved =
        engine.perturb(spec_.input_probs, engine.evaluate(spec_.input_probs),
                       spec_.perturb_index, spec_.perturb_p);
    count();
    if (!moved.selection ||
        !same_evaluation(moved, engine.evaluate(perturbed)))
      disagree("perturb_selection", spec_.name,
               "exact perturb's selection or probabilities differ from a "
               "full evaluation of the perturbed tuple");
  }

  // Session fidelities: incremental exact perturb against from-scratch
  // analyze, and the threaded screening sweep against per-element
  // screening — both promised bit-identical.
  void check_sessions(const Netlist& net) {
    SessionOptions so;
    so.parallel.num_threads = spec_.threads;
    AnalysisSession session(net, so);
    const AnalysisResult base = session.analyze(spec_.input_probs);

    std::vector<double> perturbed = spec_.input_probs;
    perturbed[spec_.perturb_index] = spec_.perturb_p;
    const AnalysisResult incremental =
        session.perturb(base, spec_.perturb_index, spec_.perturb_p);
    AnalysisSession fresh(net, so);
    const AnalysisResult scratch = fresh.analyze(perturbed);
    count();
    if (incremental.to_json(0) != scratch.to_json(0))
      disagree("perturb_vs_scratch", spec_.name,
               "incremental perturb payload differs from from-scratch "
               "analyze of the perturbed tuple");

    const double values[] = {0.2, 0.5, 0.8};
    const std::vector<AnalysisResult> sweep =
        session.perturb_screen_sweep(base, spec_.perturb_index, values);
    for (std::size_t i = 0; i < std::size(values); ++i) {
      const AnalysisResult single =
          session.perturb_screen(base, spec_.perturb_index, values[i]);
      count();
      if (sweep[i].to_json(0) != single.to_json(0))
        disagree("sweep_vs_screen", spec_.name,
                 "perturb_screen_sweep[" + std::to_string(i) +
                     "] differs from perturb_screen at p=" +
                     format_double(values[i]));
    }
  }

  // Transport: the served analyze payload must be byte-identical to the
  // direct AnalysisResult::to_json(0) on the round-tripped netlist, the
  // serve_ndjson front end must emit exactly what handle_line returns,
  // and the independent recheck leg re-derives the payload from scratch.
  void check_serve(const Netlist& net) {
    const std::string bench = write_bench_string(net);
    Netlist round_tripped = read_bench_string(bench);

    ServiceRequest load;
    load.verb = ServiceVerb::LoadNetlist;
    load.id = 1;
    load.netlist = "fuzz";
    load.source = bench;
    load.engine = "exact-bdd";
    ServiceRequest analyze;
    analyze.verb = ServiceVerb::Analyze;
    analyze.id = 2;
    analyze.netlist = "fuzz";
    analyze.input_probs = spec_.input_probs;
    AnalysisRequest artifacts;
    artifacts.test_lengths = true;
    artifacts.fault_bounds = true;
    analyze.artifacts = artifacts;

    ProtestService service;
    const std::string load_line = service.handle_line(load.to_json(0));
    const std::string analyze_line = service.handle_line(analyze.to_json(0));
    ServiceResponse response;
    try {
      count(2);
      if (!ServiceResponse::from_json(load_line).ok) {
        disagree("serve", spec_.name, "load_netlist failed: " + load_line);
        return;
      }
      response = ServiceResponse::from_json(analyze_line);
    } catch (const std::exception& e) {
      disagree("serve", spec_.name,
               std::string("undecodable response: ") + e.what());
      return;
    }
    if (!response.ok) {
      disagree("serve", spec_.name, "analyze failed: " + analyze_line);
      return;
    }

    SessionOptions direct_opts;
    direct_opts.engine = "exact-bdd";
    AnalysisSession direct(round_tripped, direct_opts);
    const std::string expected =
        direct.analyze(spec_.input_probs, artifacts).to_json(0);
    count();
    if (response.result_json != expected)
      disagree("serve_payload", spec_.name,
               "served analyze payload is not byte-identical to "
               "AnalysisResult::to_json(0)");

    // The NDJSON front end is a pure framing layer over handle_line,
    // serial or pipelined.
    for (const std::size_t inflight : {0, 2}) {
      ProtestService fresh_service;
      std::istringstream in(load.to_json(0) + "\n" + analyze.to_json(0) +
                            "\n");
      std::ostringstream out;
      serve_ndjson(fresh_service, in, out, ServeOptions{inflight});
      count();
      if (out.str() != load_line + "\n" + analyze_line + "\n")
        disagree("serve_ndjson_vs_handle_line", spec_.name,
                 "serve_ndjson output (max_inflight " +
                     std::to_string(inflight) +
                     ") differs from direct handle_line");
    }

    if (net.inputs().size() > spec_.max_exhaustive_inputs) return;
    recheck::RecheckOptions ropts;
    ropts.tolerance = 1e-9;  // the served engine is exact
    ropts.max_inputs = spec_.max_exhaustive_inputs;
    const recheck::RecheckReport rr = recheck::recheck_analyze_payload(
        round_tripped, response.result_json, ropts);
    report_.checks += rr.checks;
    for (const recheck::RecheckIssue& issue : rr.issues)
      disagree("recheck:" + issue.check, issue.where, issue.detail);
  }

  // Fault layer: under uniform 0.5 inputs the exhaustive fault
  // simulator's detection probabilities are exact dyadic rationals.  Each
  // must equal the BDD of the fault's miter (observe/miter, sharing no code
  // with the simulator's cone walk), and lie inside the static analyzer's
  // sound per-fault interval.
  void check_faults(const Netlist& net) {
    if (net.inputs().size() > spec_.max_exhaustive_inputs) return;
    const std::vector<Fault> faults = structural_fault_list(net);
    const FaultAnalysis fa = analyze_faults(net, faults);
    const FaultSimResult sim =
        simulate_faults(net, faults, PatternSet::exhaustive(net.inputs().size()),
                        FaultSimMode::CountDetections);
    const std::vector<double> probs = sim.detection_probs();
    const std::vector<double> uniform(net.inputs().size(), 0.5);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      const double miter = exact_detection_prob_bdd(net, faults[f], uniform);
      count(2);  // the miter and the interval
      if (probs[f] != miter)
        disagree("fault_sim_vs_miter", to_string(net, faults[f]),
                 "exhaustive detection probability " +
                     format_double(probs[f]) +
                     " differs from the miter BDD's " + format_double(miter));
      const FaultBound& b = fa.bounds[f];
      if (probs[f] < b.lo - 1e-9 || probs[f] > b.hi + 1e-9) {
        disagree("fault_interval", to_string(net, faults[f]),
                 "exhaustive detection probability " +
                     format_double(probs[f]) + " outside static interval [" +
                     format_double(b.lo) + ", " + format_double(b.hi) + "]");
      } else if (b.verdict == FaultClass::ProvenUndetectable &&
                 probs[f] != 0.0) {
        disagree("fault_interval", to_string(net, faults[f]),
                 "proven undetectable but exhaustively detected with "
                 "probability " +
                     format_double(probs[f]));
      }
    }
  }

  const FuzzCircuitSpec& spec_;
  FuzzReport& report_;
};

/// Runs one spec; circuit_alpha > 0 assigns the Bonferroni share (fresh
/// fuzz run), 0 keeps spec.per_net_alpha as stored (replay).
void check_circuit(FuzzCircuitSpec& spec, double circuit_alpha,
                   FuzzReport& report, std::ostream* log) {
  if (circuit_alpha > 0.0) {
    std::size_t num_nodes = 0;
    try {
      const Netlist net = spec.from_bench
                              ? read_bench_string(spec.bench_text)
                              : make_random_circuit(spec.gen);
      num_nodes = net.size();
    } catch (const std::exception&) {
      num_nodes = 1;  // CircuitChecker re-raises this as a disagreement
    }
    // Two MC comparisons per net: bounds containment and mc-vs-exact.
    spec.per_net_alpha =
        circuit_alpha / (2.0 * static_cast<double>(std::max<std::size_t>(
                                   num_nodes, 1)));
  }
  const std::size_t before = report.disagreements.size();
  const std::size_t checks_before = report.checks;
  CircuitChecker(spec, report).run();
  ++report.circuits;
  if (log != nullptr) {
    *log << "[fuzz] " << spec.name << ": "
         << report.checks - checks_before << " checks, "
         << report.disagreements.size() - before << " disagreements\n";
    for (std::size_t i = before; i < report.disagreements.size(); ++i) {
      const FuzzDisagreement& d = report.disagreements[i];
      *log << "[fuzz]   DISAGREE " << d.check << " @ " << d.where << ": "
           << d.detail << "\n";
    }
  }
}

FuzzCircuitSpec derive_random_spec(const FuzzOptions& opts, std::size_t index,
                                   std::uint64_t& stream) {
  FuzzCircuitSpec spec;
  spec.name = "rand-" + std::to_string(index);
  RandomCircuitParams g;
  g.num_inputs = 4 + splitmix64(stream) % 7;  // 4..10: exhaustive legs apply
  g.num_gates = 10 + splitmix64(stream) % 60;
  g.max_fanin = 2 + static_cast<unsigned>(splitmix64(stream) % 3);
  g.inverter_fraction = 0.1 + 0.2 * unit_draw(stream);
  g.xor_fraction = 0.05 + 0.25 * unit_draw(stream);
  g.xnor_ratio = unit_draw(stream);
  if (index % 3 == 1) {
    g.reconvergence_fraction = 0.15;
    g.reconvergence_depth = 1 + static_cast<unsigned>(splitmix64(stream) % 3);
  }
  if (index % 4 == 2) g.fanout_skew = 0.25;
  g.seed = splitmix64(stream);
  spec.gen = g;
  spec.input_probs.resize(g.num_inputs);
  for (double& p : spec.input_probs) p = 0.05 + 0.9 * unit_draw(stream);
  spec.perturb_index = splitmix64(stream) % g.num_inputs;
  spec.perturb_p = 0.05 + 0.9 * unit_draw(stream);
  spec.mc_patterns = opts.mc_patterns;
  spec.mc_seed = splitmix64(stream);
  spec.threads = opts.threads;
  spec.max_exhaustive_inputs = opts.max_exhaustive_inputs;
  return spec;
}

// Seeds serialize as decimal strings (see to_json); tolerate numbers for
// hand-written artifacts with small seeds.
std::uint64_t parse_seed(const JsonValue& v) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(s, &used);
    if (used != s.size())
      throw std::runtime_error("fuzz spec: bad seed '" + s + "'");
    return static_cast<std::uint64_t>(parsed);
  }
  return static_cast<std::uint64_t>(v.as_number());
}

}  // namespace

std::string FuzzCircuitSpec::to_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.key("name").value(name);
  w.key("kind").value(from_bench ? "bench" : "random");
  if (from_bench) {
    w.key("bench_text").value(bench_text);
  } else {
    w.key("gen").begin_object();
    w.key("num_inputs").value(gen.num_inputs);
    w.key("num_gates").value(gen.num_gates);
    w.key("max_fanin").value(gen.max_fanin);
    w.key("inverter_fraction").value(gen.inverter_fraction);
    w.key("xor_fraction").value(gen.xor_fraction);
    w.key("xnor_ratio").value(gen.xnor_ratio);
    w.key("reconvergence_fraction").value(gen.reconvergence_fraction);
    w.key("reconvergence_depth").value(gen.reconvergence_depth);
    w.key("fanout_skew").value(gen.fanout_skew);
    // Seeds are full 64-bit values; a JSON number (double) only holds 53
    // bits exactly, so they travel as decimal strings.
    w.key("seed").value(std::to_string(gen.seed));
    w.end_object();
  }
  w.key("input_probs").begin_array();
  for (double p : input_probs) w.value(p);
  w.end_array();
  w.key("perturb_index").value(perturb_index);
  w.key("perturb_p").value(perturb_p);
  w.key("mc_patterns").value(mc_patterns);
  w.key("mc_seed").value(std::to_string(mc_seed));
  w.key("threads").value(threads);
  w.key("per_net_alpha").value(per_net_alpha);
  w.key("inject").value(inject);
  w.key("max_exhaustive_inputs").value(max_exhaustive_inputs);
  w.end_object();
  return w.str();
}

FuzzCircuitSpec FuzzCircuitSpec::from_json_value(const JsonValue& doc) {
  FuzzCircuitSpec spec;
  spec.name = doc.at("name").as_string();
  const std::string& kind = doc.at("kind").as_string();
  if (kind == "bench") {
    spec.from_bench = true;
    spec.bench_text = doc.at("bench_text").as_string();
  } else if (kind == "random") {
    const JsonValue& g = doc.at("gen");
    spec.gen.num_inputs =
        static_cast<std::size_t>(g.at("num_inputs").as_number());
    spec.gen.num_gates =
        static_cast<std::size_t>(g.at("num_gates").as_number());
    spec.gen.max_fanin = static_cast<unsigned>(g.at("max_fanin").as_number());
    spec.gen.inverter_fraction = g.at("inverter_fraction").as_number();
    spec.gen.xor_fraction = g.at("xor_fraction").as_number();
    spec.gen.xnor_ratio = g.at("xnor_ratio").as_number();
    spec.gen.reconvergence_fraction =
        g.at("reconvergence_fraction").as_number();
    spec.gen.reconvergence_depth =
        static_cast<unsigned>(g.at("reconvergence_depth").as_number());
    spec.gen.fanout_skew = g.at("fanout_skew").as_number();
    spec.gen.seed = parse_seed(g.at("seed"));
  } else {
    throw std::runtime_error("fuzz spec: unknown kind '" + kind + "'");
  }
  for (const JsonValue& p : doc.at("input_probs").as_array())
    spec.input_probs.push_back(p.as_number());
  spec.perturb_index =
      static_cast<std::size_t>(doc.at("perturb_index").as_number());
  spec.perturb_p = doc.at("perturb_p").as_number();
  spec.mc_patterns =
      static_cast<std::size_t>(doc.at("mc_patterns").as_number());
  spec.mc_seed = parse_seed(doc.at("mc_seed"));
  spec.threads = static_cast<unsigned>(doc.at("threads").as_number());
  spec.per_net_alpha = doc.at("per_net_alpha").as_number();
  spec.inject = doc.at("inject").as_bool();
  spec.max_exhaustive_inputs =
      static_cast<std::size_t>(doc.at("max_exhaustive_inputs").as_number());
  return spec;
}

FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream* log) {
  std::vector<FuzzCircuitSpec> specs;
  std::uint64_t stream = opts.seed;
  for (std::size_t i = 0; i < opts.num_circuits; ++i)
    specs.push_back(derive_random_spec(opts, i, stream));

  // Fixed-seed corpus: real topologies next to the generated grid.
  for (const std::string& path : opts.bench_files) {
    std::ifstream in(path);
    if (!in) {
      FuzzReport broken;
      broken.disagreements.push_back(
          {"corpus", path, "cannot read bench file", FuzzCircuitSpec{}});
      return broken;
    }
    std::ostringstream text;
    text << in.rdbuf();
    FuzzCircuitSpec spec;
    spec.name = std::filesystem::path(path).stem().string();
    spec.from_bench = true;
    spec.bench_text = text.str();
    const Netlist net = read_bench_string(spec.bench_text);
    spec.input_probs.resize(net.inputs().size());
    for (double& p : spec.input_probs) p = 0.05 + 0.9 * unit_draw(stream);
    spec.perturb_index = splitmix64(stream) % net.inputs().size();
    spec.perturb_p = 0.05 + 0.9 * unit_draw(stream);
    spec.mc_patterns = opts.mc_patterns;
    spec.mc_seed = splitmix64(stream);
    spec.threads = opts.threads;
    spec.max_exhaustive_inputs = opts.max_exhaustive_inputs;
    specs.push_back(std::move(spec));
  }

  if (opts.inject_disagreement && !specs.empty()) specs.front().inject = true;

  FuzzReport report;
  const double circuit_alpha =
      opts.aggregate_alpha / static_cast<double>(std::max<std::size_t>(
                                 specs.size(), 1));
  for (FuzzCircuitSpec& spec : specs)
    check_circuit(spec, circuit_alpha, report, log);

  if (!opts.corpus_dir.empty()) {
    for (std::size_t i = 0; i < report.disagreements.size(); ++i)
      report.artifact_paths.push_back(
          write_repro_artifact(report.disagreements[i], opts.corpus_dir, i));
  }
  return report;
}

FuzzReport run_replay(const std::string& path, std::ostream* log) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read repro artifact: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue doc = parse_json(text.str());
  if (doc.find("protest_fuzz_repro") == nullptr)
    throw std::runtime_error("not a fuzz repro artifact: " + path);
  FuzzCircuitSpec spec = FuzzCircuitSpec::from_json_value(doc.at("spec"));
  FuzzReport report;
  check_circuit(spec, /*circuit_alpha=*/0.0, report, log);
  return report;
}

std::string write_repro_artifact(const FuzzDisagreement& d,
                                 const std::string& corpus_dir,
                                 std::size_t ordinal) {
  std::filesystem::create_directories(corpus_dir);
  std::string slug = d.spec.name.empty() ? "unknown" : d.spec.name;
  for (char& c : slug)
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '_'))
      c = '_';
  const std::filesystem::path path =
      std::filesystem::path(corpus_dir) /
      ("repro-" + slug + "-" + std::to_string(ordinal) + ".json");

  JsonWriter w(2);
  w.begin_object();
  w.key("protest_fuzz_repro").value(1);
  w.key("check").value(d.check);
  w.key("where").value(d.where);
  w.key("detail").value(d.detail);
  w.key("spec").raw(d.spec.to_json(2));
  w.end_object();

  std::ofstream out(path);
  out << w.str() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
  return path.string();
}

}  // namespace protest::validate
