#include "driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/json.hpp"
#include "helpers.hpp"
#include "lint/lint.hpp"
#include "netlist/bench_io.hpp"
#include "passes.hpp"
#include "prob/engine.hpp"
#include "prob/signal_prob.hpp"
#include "protest/service.hpp"
#include "protest/supervisor.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"

namespace perfbench {
namespace {

using protest::JsonValue;
using protest::JsonWriter;
using protest::ProtestService;
using protest::ServiceEndpoint;
using Clock = std::chrono::steady_clock;

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 15;
/// The committed fidelity references: fault simulation with Table 1's
/// 100,000 random patterns of seed 1985.
constexpr std::size_t kRefPatterns = 100'000;
constexpr std::uint64_t kRefPatternSeed = 1985;
/// The Monte-Carlo configuration of the prob/sim layer probe.
constexpr std::size_t kMcPatterns = 65'536;
constexpr std::uint64_t kMcSeed = 1985;
/// N of the objective_log guard (the optimize verb's default).
constexpr std::uint64_t kObjectiveN = 10'000;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

std::string quote(std::string_view s) { return JsonWriter::quote(s); }

/// The `protest` CLI built next to this executable: supervised workers
/// run it.
std::string worker_binary() {
  return (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
          "protest")
      .string();
}

double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

// --- fidelity -----------------------------------------------------------------

struct Reference {
  std::vector<std::string> faults;
  std::vector<double> p_sim;
};

Reference load_reference(const Options& opts, const std::string& circuit) {
  const std::string path = opts.data_dir + "/" + circuit + ".json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing fidelity reference " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = protest::parse_json(ss.str());
  const double patterns = doc.at("patterns").as_number();
  if (patterns != kRefPatterns ||
      doc.at("pattern_seed").as_number() != kRefPatternSeed)
    throw std::runtime_error(path + " was not made with " +
                             std::to_string(kRefPatterns) +
                             " patterns of seed " +
                             std::to_string(kRefPatternSeed));
  Reference ref;
  for (const JsonValue& f : doc.at("faults").as_array())
    ref.faults.push_back(f.as_string());
  for (const JsonValue& c : doc.at("detect_counts").as_array())
    ref.p_sim.push_back(c.as_number() / patterns);
  if (ref.faults.size() != ref.p_sim.size())
    throw std::runtime_error("corrupt fidelity reference " + path);
  return ref;
}

/// Exhaustive fault simulation of a resident session's netlist (the ALU
/// reference: 2^14 patterns).
Reference exhaustive_reference(ProtestService& svc, const std::string& name) {
  const auto session = svc.registry().open(name);
  const protest::Netlist& net = session->netlist();
  const auto& faults = session->faults();
  const auto sim = protest::simulate_faults(
      net, faults, protest::PatternSet::exhaustive(net.inputs().size()),
      protest::FaultSimMode::CountDetections);
  Reference ref;
  for (const protest::Fault& f : faults)
    ref.faults.push_back(protest::to_string(net, f));
  ref.p_sim = sim.detection_probs();
  return ref;
}

/// Table 1 statistics of a served analyze response against `ref`.
Fidelity served_fidelity(const std::string& analyze_resp, const Reference& ref,
                         Run& run) {
  std::vector<double> est;
  const JsonValue doc = parse_payload(analyze_resp);
  const auto& list = doc.at("detection_probs").as_array();
  if (list.size() != ref.faults.size()) {
    run.fail("fidelity: fault list size differs from the reference");
    return {};
  }
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].at("fault").as_string() != ref.faults[i]) {
      run.fail("fidelity: fault order differs from the reference at " +
               std::to_string(i));
      return {};
    }
    est.push_back(list[i].at("p_detect").as_number());
  }
  return fidelity(est, ref.p_sim);
}

void report_fidelity(const Fidelity& f, Run& run) {
  run.metric("fidelity_max_err", f.max_err, "prob");
  run.metric("fidelity_mean_err", f.mean_err, "prob");
  run.metric("fidelity_corr", f.corr, "r");
}

/// -log J_N from a served optimize response (lower is better).
double objective_of(const std::string& optimize_resp, Run& run) {
  const JsonValue& v = parse_payload(optimize_resp).at("log_objective");
  if (!v.is_number()) {
    run.fail("optimize returned a non-finite log_objective");
    return 0.0;
  }
  return -v.as_number();
}

/// Tail percentiles per workload (see tail_latency): at 30 s per run
/// alu_mix records ~100k requests and div_whatif ~200.
constexpr double kTailMix = 99, kTailWhatIf = 90;

void report_latency(const Pass& p, double tail_percentile, Run& run) {
  const Tail tail = tail_latency(p.lat_ms, tail_percentile);
  std::map<std::string, std::vector<double>> by_verb;
  for (std::size_t i = 0; i < p.verbs.size(); ++i)
    by_verb[p.verbs[i]].push_back(p.lat_ms[i]);
  std::string verbs = "{";
  for (const auto& [v, ms] : by_verb)
    verbs += (verbs.size() > 1 ? "," : "") + quote(v) +
             ":{\"n\":" + std::to_string(ms.size()) +
             ",\"p50_ms\":" + number(median(ms)) + "}";
  run.detail("latency_by_verb", verbs + "}");
  run.metric("throughput_rps", static_cast<double>(p.ok) / p.wall_s, "1/s");
  run.metric("latency_p50_ms", median(p.lat_ms), "ms");
  run.metric("latency_tail_ms", tail.value, "ms");
  run.detail("latency_tail",
             "{\"percentile\":" + number(tail.percentile) +
                 ",\"samples_beyond\":" + std::to_string(tail.samples_beyond) +
                 ",\"samples\":" + std::to_string(tail.samples) + "}");
}

void report_success(Run& run) {
  run.metric("success_rate",
             1.0 - static_cast<double>(run.failed) /
                       static_cast<double>(std::max<std::size_t>(1, run.attempted)),
             "ratio");
}

/// A sample's median and interquartile range as a JSON detail.  The
/// median counts as resolved when it is larger than the range.
std::string spread_detail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return v.empty() ? 0.0 : v[static_cast<std::size_t>(q * (v.size() - 1))];
  };
  const double med = median(v), q1 = at(0.25), q3 = at(0.75);
  return "{\"median\":" + number(med) + ",\"q1\":" + number(q1) +
         ",\"q3\":" + number(q3) + ",\"n\":" + std::to_string(v.size()) +
         ",\"resolved\":" + (med > q3 - q1 ? "true" : "false") + "}";
}

/// Per-layer numbers of a lockstep pass; returns trace.coverage.
double report_trace(const Lockstep& ls, const Tracer& tr, Run& run) {
  if (const long m = first_mismatch(ls.untraced.digests, ls.traced.digests);
      m >= 0)
    run.fail("traced pass response " + std::to_string(m) +
             " differs from the untraced pass");
  const auto& spans = tr.spans();
  std::vector<double> read_ms, decode_us;
  for (const Span& s : spans) {
    if (s.name == "json.read") read_ms.push_back((s.end - s.start) * 1e3);
    if (s.name == "service.decode") decode_us.push_back((s.end - s.start) * 1e6);
  }
  run.metric("json.read_ms", mean(read_ms), "ms");
  run.metric("service.decode_us", mean(decode_us), "us");
  const double cov = coverage(spans);
  run.metric("trace.coverage", cov, "ratio");
  // Each request ran traced and untraced back to back, so the per-request
  // ratios pair like with like.
  std::vector<double> ratio;
  for (std::size_t i = 0; i < ls.traced.lat_ms.size(); ++i)
    if (ls.untraced.lat_ms[i] > 0.0)
      ratio.push_back(ls.traced.lat_ms[i] / ls.untraced.lat_ms[i] - 1.0);
  run.metric("trace.overhead_frac", median(ratio), "ratio");
  run.detail("trace_overhead_frac", spread_detail(ratio));

  // Self time per span name, for the written trace summary.
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::pair<double, std::size_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& e = by_name[spans[i].name];
    e.first += self[i];
    ++e.second;
  }
  std::string summary = "{";
  for (const auto& [name, e] : by_name) {
    if (summary.size() > 1) summary += ',';
    summary += quote(name) + ":{\"self_s\":" + number(e.first) +
               ",\"count\":" + std::to_string(e.second) + "}";
  }
  run.detail("span_self_time", summary + "}");
  return cov;
}

void write_spans(const Options& opts, const Tracer& tr) {
  std::filesystem::create_directories(opts.out_dir);
  const std::string path = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-spans.ndjson";
  std::ofstream out(path);
  for (const Span& s : tr.spans())
    out << "{\"name\":" << quote(s.name) << ",\"start\":" << number(s.start)
        << ",\"end\":" << number(s.end) << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
}

// --- session counters ---------------------------------------------------------

struct SessionCounts {
  double analyze_calls = 0, cache_hits = 0, full = 0, incremental = 0,
         screen = 0;
  void add(const std::string& stats_resp) {
    const JsonValue doc = parse_payload(stats_resp);
    const JsonValue* s = doc.find("stats");
    if (!s) return;
    analyze_calls += s->at("analyze_calls").as_number();
    cache_hits += s->at("cache_hits").as_number();
    full += s->at("full_evals").as_number();
    incremental += s->at("incremental_evals").as_number();
    screen += s->at("screen_evals").as_number();
  }
  void report(Run& run) const {
    run.metric("session.cache_hit_ratio",
               analyze_calls > 0 ? cache_hits / analyze_calls : 0.0, "ratio");
    run.metric("session.full_evals", full, "count");
    run.metric("session.incremental_evals", incremental, "count");
    run.metric("session.screen_evals", screen, "count");
  }
};

SessionCounts session_counts(ServiceEndpoint& ep,
                             const std::vector<std::string>& names, Run& run) {
  SessionCounts c;
  for (const std::string& n : names)
    c.add(call(ep, request_line("stats", 0, n), run));
  return c;
}

// --- layer probes -------------------------------------------------------------

std::string load_line(std::string_view name, std::string_view members) {
  return request_line("load_netlist", 0, name, members);
}

/// Times every layer the workload's own script does not isolate, on the
/// workload's circuit: parse, plan, evaluation, perturbation, artifacts,
/// lint, serialization, Monte-Carlo, and one hill-climb coordinate sweep.
void probe_layers(const std::string& load_members, Run& run) {
  constexpr int reps = 3;
  ProtestService svc;
  call(svc, load_line("probe", load_members), run);
  const auto session = svc.registry().open("probe");
  const protest::Netlist& net = session->netlist();
  const std::size_t ni = net.inputs().size();
  Rng rng(derive_seed(0x9e37, net.num_gates()));

  // netlist: .bench parse of the workload's circuit.
  const std::string text = protest::write_bench_string(net);
  std::vector<double> parse_s;
  for (int r = 0; r < reps; ++r)
    parse_s.push_back(time_s([&] { protest::read_bench_string(text); }));
  const double lines =
      static_cast<double>(std::count(text.begin(), text.end(), '\n'));
  run.metric("netlist.parse_ms", median(parse_s) * 1e3, "ms");
  run.metric("netlist.parse_lines_per_s", lines / median(parse_s), "1/s");

  // prob: plan = first evaluation on a fresh session minus a steady one.
  const auto minimal = protest::AnalysisRequest::minimal();
  const double first_s =
      time_s([&] { session->analyze(grid_tuple(rng, ni), minimal); });
  std::vector<double> full_s;
  for (int r = 0; r < reps; ++r)
    full_s.push_back(
        time_s([&] { session->analyze(grid_tuple(rng, ni), minimal); }));
  run.metric("prob.plan_ms", (first_s - median(full_s)) * 1e3, "ms");
  run.metric("prob.full_eval_ms", median(full_s) * 1e3, "ms");
  const auto& pe =
      dynamic_cast<const protest::ProtestEngine&>(session->engine());
  run.metric("prob.gates_conditioned",
             static_cast<double>(pe.stats().gates_conditioned), "count");
  run.metric("prob.max_w", static_cast<double>(pe.stats().max_w), "count");

  // prob: exact perturb and the first screen after a new base.
  std::vector<double> perturb_s, screen_s, obs_s, det_s, fb_s, write_s,
      write_mb, lint_s;
  for (int r = 0; r < reps; ++r) {
    const std::vector<double> t = grid_tuple(rng, ni);
    const protest::AnalysisResult base = session->analyze(t, minimal);
    const std::size_t i = rng.below(ni);
    const double v = other_grid_prob(rng, t[i]);
    perturb_s.push_back(time_s([&] { session->perturb(base, i, v); }));
    screen_s.push_back(time_s([&] { session->perturb_screen(base, i, v); }));
    // observe / lint: first access of each artifact on a fresh result.
    obs_s.push_back(time_s([&] { base.observability(); }));
    det_s.push_back(time_s([&] { base.detection_probs(); }));
    fb_s.push_back(time_s([&] { base.fault_bounds(); }));
    // json: serialization of a result whose default artifacts are
    // already materialized.
    const protest::AnalysisResult full = session->analyze(t);
    std::size_t bytes = 0;
    write_s.push_back(time_s([&] { bytes = full.to_json(0).size(); }));
    write_mb.push_back(static_cast<double>(bytes) / 1e6);
    lint_s.push_back(time_s([&] { protest::run_lint(net); }));
  }
  run.metric("prob.perturb_ms", median(perturb_s) * 1e3, "ms");
  run.metric("prob.screen_ms", median(screen_s) * 1e3, "ms");
  run.metric("observe.observability_ms", median(obs_s) * 1e3, "ms");
  run.metric("observe.detection_ms", median(det_s) * 1e3, "ms");
  run.metric("lint.fault_bounds_ms", median(fb_s) * 1e3, "ms");

  // service: handle_line time beyond its layer calls, on a cache-hit
  // analyze (identical work both ways).  The two paths run back to back,
  // in alternating order; the metric is the median of the paired
  // differences, and the detail says whether it exceeds their spread.
  {
    const std::string line = request_line(
        "analyze", 7, "probe",
        "\"input_probs\":" + json_number_array(grid_tuple(rng, ni)) +
            ",\"artifacts\":[\"signal_probs\"]");
    call(svc, line, run);
    auto whole = [&] { return time_s([&] { svc.handle_line(line); }); };
    auto layers = [&] {
      return time_s([&] {
        const auto req = protest::ServiceRequest::from_json(line);
        const auto sess = svc.registry().open(req.netlist);
        const auto res = sess->analyze(req.input_probs, *req.artifacts);
        protest::ServiceResponse::success(req, res.to_json(0)).to_json(0);
      });
    };
    std::vector<double> diff_us;
    for (int r = 0; r < 101; ++r) {
      double w = 0.0, l = 0.0;
      if (r % 2) {
        w = whole();
        l = layers();
      } else {
        l = layers();
        w = whole();
      }
      diff_us.push_back((w - l) * 1e6);
    }
    run.metric("service.overhead_us", median(diff_us), "us");
    run.detail("service_overhead_us", spread_detail(diff_us));
  }
  run.metric("json.write_ms", median(write_s) * 1e3, "ms");
  run.metric("json.write_mb_per_s", median(write_mb) / median(write_s), "MB/s");
  run.metric("lint.run_ms", median(lint_s) * 1e3, "ms");

  // prob/sim: a Monte-Carlo evaluation on the same circuit.
  call(svc,
       load_line("probe_mc", load_members +
                                 ",\"engine\":\"monte-carlo\",\"seed\":" +
                                 std::to_string(kMcSeed) + ",\"patterns\":" +
                                 std::to_string(kMcPatterns)),
       run);
  const auto mc = svc.registry().open("probe_mc");
  std::vector<double> mc_s;
  for (int r = 0; r < reps; ++r)
    mc_s.push_back(time_s([&] { mc->analyze(grid_tuple(rng, ni), minimal); }));
  run.metric("prob.mc_eval_ms", median(mc_s) * 1e3, "ms");
  run.metric("sim.gate_evals_per_s",
             static_cast<double>(net.num_gates()) *
                 static_cast<double>(kMcPatterns) / median(mc_s),
             "1/s");

  // optimize: one coordinate's neighborhood sweep (the hill climber's
  // k = 8 neighbors on the 1/16 grid), at the default thread count and at
  // one thread.
  const std::vector<double> values = {0.75,   0.25,   0.625,
                                     0.375,  0.5625, 0.4375};
  auto sweep_s = [&](ProtestService& s, const char* name) {
    const auto sess = s.registry().open(name);
    const protest::AnalysisResult base =
        sess->analyze(protest::uniform_input_probs(net, 0.5));
    sess->perturb_screen_sweep(base, 0, values);  // warm the workers
    std::vector<double> ts;
    for (int r = 0; r < reps; ++r)
      ts.push_back(time_s([&] { sess->perturb_screen_sweep(base, 0, values); }));
    return median(ts);
  };
  protest::ServiceConfig serial;
  serial.parallel.num_threads = 1;
  ProtestService svc1(serial);
  call(svc1, load_line("probe", load_members), run);
  const double sweep_default = sweep_s(svc, "probe");
  const double sweep_serial = sweep_s(svc1, "probe");
  run.metric("optimize.sweep_ms", sweep_default * 1e3, "ms");
  run.metric("optimize.sweep_speedup", sweep_serial / sweep_default, "x");
  run.metric("optimize.evaluations", static_cast<double>(values.size() + 1),
             "count");
}

/// Latencies through a fresh one-worker supervisor that the `setup`
/// requests prepare, with one concurrent client per list of lines (client
/// 0's first), and the supervisor's retry and restart counters.
struct Supervised {
  std::vector<double> ms;
  double retries = 0, restarts = 0;
};

Supervised supervised(const std::vector<std::string>& setup,
                      const std::vector<std::vector<std::string>>& clients,
                      Run& run) {
  protest::SupervisorOptions so;
  so.workers = 1;
  so.worker_binary = worker_binary();
  std::ostringstream log;
  protest::Supervisor sup(so, log);
  for (const std::string& l : setup) call(sup, l, run);
  const std::size_t n = clients.size();
  std::vector<std::vector<double>> per(n);
  std::vector<Run> runs(n);
  std::vector<std::thread> th;
  for (std::size_t c = 0; c < n; ++c)
    th.emplace_back([&, c] {
      for (const std::string& l : clients[c]) {
        const auto t = Clock::now();
        call(sup, l, runs[c]);
        per[c].push_back(since(t) * 1e3);
      }
    });
  for (auto& t : th) t.join();
  Supervised out;
  for (std::size_t c = 0; c < n; ++c) {
    out.ms.insert(out.ms.end(), per[c].begin(), per[c].end());
    run.merge(std::move(runs[c]));
  }
  const JsonValue stats =
      parse_payload(call(sup, request_line("stats", 0, ""), run));
  const JsonValue& counters = stats.at("supervisor").at("counters");
  out.retries = counters.at("retries").as_number();
  out.restarts = counters.at("restarts").as_number();
  if (out.retries != 0 || out.restarts != 0)
    run.fail("the supervisor retried or restarted a worker");
  call(sup, request_line("shutdown", 0, ""), run);
  return out;
}

// --- the perturb oracle -------------------------------------------------------

/// A sampled perturb must be byte-identical to a from-scratch analyze of
/// the perturbed tuple on a fresh service with the result cache off.
class PerturbOracle {
 public:
  PerturbOracle(std::string load_members, std::size_t max_samples)
      : load_members_(std::move(load_members)), max_(max_samples) {}

  void offer(const std::string& line, const std::string& resp) {
    if (samples_.size() >= max_ || line.find("\"verb\":\"perturb\"") ==
                                       std::string::npos ||
        line.find("\"screen\":true") != std::string::npos)
      return;
    samples_.push_back({line, std::string(payload_of(resp))});
  }

  void check(Run& run) {
    if (samples_.empty()) return;
    ProtestService fresh;
    for (const auto& [line, payload] : samples_) {
      const protest::ServiceRequest req =
          protest::ServiceRequest::from_json(line);
      std::vector<double> t = req.input_probs;
      t.at(req.input_index) = req.new_p;
      std::string members = "\"input_probs\":" + json_number_array(t);
      const JsonValue doc = protest::parse_json(line);
      if (const JsonValue* a = doc.find("artifacts")) {
        members += ",\"artifacts\":[";
        for (const JsonValue& n : a->as_array())
          members += (members.back() == '[' ? "" : ",") + quote(n.as_string());
        members += "]";
      }
      // A fresh registration per sample with the cache off: every
      // analyze is a from-scratch evaluation.
      call(fresh,
           load_line(req.netlist, load_members_ + ",\"max_cached_results\":0"),
           run);
      const std::string resp =
          call(fresh, request_line("analyze", req.id, req.netlist, members),
               run);
      if (payload_of(resp) != payload)
        run.fail("perturb payload differs from a fresh analyze: " +
                 line.substr(0, 160));
    }
    run.detail("perturb_oracle_samples", std::to_string(samples_.size()));
  }

 private:
  std::string load_members_;
  std::size_t max_;
  std::vector<std::pair<std::string, std::string>> samples_;
};

// --- workloads ----------------------------------------------------------------

/// Set-up repeated kSetupRepeats times; returns the last instance and
/// records setup_s as the median.
template <typename T, typename F>
std::unique_ptr<T> repeated_setup(F&& make, Run& run) {
  std::vector<double> ts;
  std::unique_ptr<T> inst;
  for (int r = 0; r < kSetupRepeats; ++r) {
    inst.reset();
    const auto t0 = Clock::now();
    inst = make();
    ts.push_back(since(t0));
  }
  run.metric("setup_s", median(ts), "s");
  std::string samples = "[";
  for (const double t : ts) samples += (samples.size() > 1 ? "," : "") + number(t);
  run.detail("setup_s_samples", samples + "]");
  return inst;
}

std::string analyze_half_line(std::string_view name) {
  return request_line("analyze", 0, name, "\"p\":0.5");
}

/// The objective_log guard: -log J_N at p = 0.5, without climbing.
std::string objective_line(std::string_view name) {
  return request_line("optimize", 0, name,
                      "\"n\":" + std::to_string(kObjectiveN) +
                          ",\"sweeps\":0");
}

struct Served {
  ProtestService svc;
  std::string first_analyze;
};

// alu_mix --------------------------------------------------------------------

constexpr unsigned kFleetWorkers = 4;
constexpr unsigned kFleetClients = 4;

/// Eight registration names, two homed on each worker.
std::vector<std::string> fleet_names(Run& run) {
  std::vector<std::string> names;
  std::vector<int> per(kFleetWorkers, 0);
  for (int i = 0; names.size() < 2 * kFleetWorkers; ++i) {
    const std::string n = "alu" + std::to_string(i);
    const unsigned w = protest::worker_for_netlist(n, kFleetWorkers);
    if (per[w] < 2) {
      ++per[w];
      names.push_back(n);
    }
  }
  for (unsigned w = 0; w < kFleetWorkers; ++w)
    if (per[w] != 2) run.fail("fleet placement is not two names per worker");
  std::string homes = "{";
  for (int i = 0; i < 4; ++i)
    homes += std::string(i ? "," : "") + "\"alu" + std::to_string(i) +
             "\":" +
             std::to_string(protest::worker_for_netlist(
                 "alu" + std::to_string(i), kFleetWorkers));
  run.detail("alu0_3_home_workers", homes + "}");
  std::string chosen = "[";
  for (const std::string& n : names)
    chosen += (chosen.size() > 1 ? "," : "") + quote(n);
  run.detail("fleet_names", chosen + "]");
  return names;
}

/// Loads every registration on `ep` and warms each with one analyze.
std::string load_fleet_names(ServiceEndpoint& ep,
                             const std::vector<std::string>& names, Run& run) {
  std::string first;
  for (const std::string& n : names)
    call(ep, load_line(n, "\"circuit\":\"alu\""), run);
  for (const std::string& n : names) {
    std::string r = call(ep, analyze_half_line(n), run);
    if (first.empty()) first = std::move(r);
  }
  return first;
}

/// Every client's closed loop against `ep` for `seconds`, plus a sample of
/// (request, response) pairs for the oracle.
struct FleetPass {
  Pass pass;
  std::vector<std::pair<std::string, std::string>> samples;
};

FleetPass fleet_pass(ServiceEndpoint& ep, const std::vector<std::string>& names,
                     std::uint64_t seed, unsigned clients, double seconds,
                     Run& run) {
  struct Client {
    Pass pass;
    Run run;
    std::size_t seen = 0;
    std::vector<std::pair<std::string, std::string>> samples;
  };
  std::vector<Client> cs(clients);
  std::vector<std::thread> th;
  const auto t0 = Clock::now();
  for (unsigned c = 0; c < clients; ++c)
    th.emplace_back([&, c] {
      Client& me = cs[c];
      FleetScript script(seed, c, names, 14);
      me.pass = timed_pass(
          ep, [&] { return std::vector<std::string>{script.next()}; }, seconds,
          me.run, [&](const std::string& line, const std::string& resp) {
            if (++me.seen % 37 == 0 && me.samples.size() < 24 &&
                line.find("\"verb\":\"stats\"") == std::string::npos)
              me.samples.emplace_back(line, resp);
          });
    });
  for (auto& t : th) t.join();
  FleetPass fp;
  fp.pass.wall_s = since(t0);
  for (Client& c : cs) {
    Pass& p = fp.pass;
    p.lat_ms.insert(p.lat_ms.end(), c.pass.lat_ms.begin(), c.pass.lat_ms.end());
    p.verbs.insert(p.verbs.end(), c.pass.verbs.begin(), c.pass.verbs.end());
    p.ok += c.pass.ok;
    run.merge(std::move(c.run));
    for (auto& s : c.samples) fp.samples.push_back(std::move(s));
  }
  return fp;
}

/// The supervisor layer for alu_mix's traced run: a fleet of four
/// workers with two registrations each, at four clients and at one,
/// against `in_process_ms` (client 0's script on an in-process service).
/// Sampled fleet responses must equal the in-process service's; the
/// workers' peak memory is read through the pids the supervisor reports.
void probe_fleet(const Options& opts, const std::vector<std::string>& names,
                 const std::vector<double>& in_process_ms, Run& run) {
  protest::SupervisorOptions so;
  so.workers = kFleetWorkers;
  so.worker_binary = worker_binary();
  std::ostringstream log;
  protest::Supervisor sup(so, log);
  load_fleet_names(sup, names, run);
  const FleetPass four =
      fleet_pass(sup, names, opts.seed, kFleetClients, opts.seconds * 0.2, run);
  const FleetPass one =
      fleet_pass(sup, names, opts.seed, 1, opts.seconds * 0.1, run);
  run.metric("supervisor.hop_ms",
             median(one.pass.lat_ms) - median(in_process_ms), "ms");
  run.metric("supervisor.queue_ms",
             median(four.pass.lat_ms) - median(one.pass.lat_ms), "ms");

  ProtestService twin;
  load_fleet_names(twin, names, run);
  for (const auto& [line, resp] : four.samples) {
    ++run.attempted;
    if (twin.handle_line(line) != resp)
      run.fail("fleet response differs from the in-process service: " +
               line.substr(0, 160));
  }
  run.detail("fleet_oracle_samples", std::to_string(four.samples.size()));

  const JsonValue stats =
      parse_payload(call(sup, request_line("stats", 0, ""), run));
  const JsonValue& sv = stats.at("supervisor");
  double rss = 0.0;
  for (const JsonValue& w : sv.at("workers").as_array())
    rss += vm_hwm_mb(std::to_string(
        static_cast<long long>(w.at("pid").as_number())));
  run.detail("fleet_workers_peak_rss_mb", number(rss));
  const JsonValue& counters = sv.at("counters");
  run.metric("supervisor.retries", counters.at("retries").as_number(), "count");
  run.metric("supervisor.restarts", counters.at("restarts").as_number(),
             "count");
  if (counters.at("retries").as_number() != 0 ||
      counters.at("restarts").as_number() != 0)
    run.fail("the fleet retried or restarted a worker");
  call(sup, request_line("shutdown", 0, ""), run);
}

void alu_mix(const Options& opts, Run& run) {
  const std::vector<std::string> names = fleet_names(run);
  auto serve = [&] {
    auto s = std::make_unique<Served>();
    s->first_analyze = load_fleet_names(s->svc, names, run);
    return s;
  };
  auto served = repeated_setup<Served>(serve, run);
  report_fidelity(
      served_fidelity(served->first_analyze,
                      exhaustive_reference(served->svc, names.front()), run),
      run);
  // Client 0 of the fleet script, one request per batch.
  auto script = [&] {
    auto s = std::make_shared<FleetScript>(opts.seed, 0, names, 14);
    return Batch([s] { return std::vector<std::string>{s->next()}; });
  };
  PerturbOracle oracle("\"circuit\":\"alu\"", 16);
  std::size_t seen = 0;
  auto observe = [&](const std::string& l, const std::string& r) {
    if (++seen % 37 == 0) oracle.offer(l, r);
  };

  if (!opts.trace) {
    const Pass p =
        timed_pass(served->svc, script(), opts.seconds, run, observe);
    oracle.check(run);
    report_latency(p, kTailMix, run);
    run.metric("objective_log",
               objective_of(call(served->svc, objective_line(names.front()),
                                 run),
                            run),
               "nat");
    report_success(run);
    run.metric("peak_rss_mb", vm_hwm_mb("self"), "MB");
    return;
  }

  const std::unique_ptr<Served> twin = serve();
  Tracer tr;
  const Lockstep ls = lockstep_pass(served->svc, twin->svc, script(),
                                    opts.seconds * 0.4, tr, run, observe);
  oracle.check(run);
  session_counts(served->svc, names, run).report(run);
  report_trace(ls, tr, run);
  write_spans(opts, tr);
  probe_fleet(opts, names, ls.untraced.lat_ms, run);
  probe_layers("\"circuit\":\"alu\"", run);
}

// div_whatif -------------------------------------------------------------------

void div_whatif(const Options& opts, Run& run) {
  const std::string div = "\"circuit\":\"div\"";
  // The load, then the warm-up analyze at p = 0.5 whose response the
  // fidelity guard reads.
  const std::vector<std::string> setup = {load_line("div", div),
                                          analyze_half_line("div")};
  auto serve = [&] {
    auto s = std::make_unique<Served>();
    for (const std::string& l : setup) s->first_analyze = call(s->svc, l, run);
    return s;
  };
  auto served = repeated_setup<Served>(serve, run);
  report_fidelity(
      served_fidelity(served->first_analyze, load_reference(opts, "div"), run),
      run);
  auto script = [](std::uint64_t seed) {
    auto s = std::make_shared<WhatIfScript>(seed, "div", 32);
    return Batch([s] { return s->next_round(); });
  };
  PerturbOracle oracle(div, 2);
  auto observe = [&](const std::string& l, const std::string& r) {
    oracle.offer(l, r);
  };

  if (!opts.trace) {
    const Pass p =
        timed_pass(served->svc, script(opts.seed), opts.seconds, run, observe);
    oracle.check(run);
    report_latency(p, kTailWhatIf, run);
    run.metric("objective_log",
               objective_of(call(served->svc, objective_line("div"), run), run),
               "nat");
    report_success(run);
    run.metric("peak_rss_mb", vm_hwm_mb("self"), "MB");
    return;
  }

  // The layer split: a lockstep pass on two identical set-ups.  Every verb
  // of the script is split by layer, so the spans must explain at least
  // 90% of request time.
  const std::unique_ptr<Served> twin = serve();
  Tracer tr;
  const Lockstep ls = lockstep_pass(served->svc, twin->svc, script(opts.seed),
                                    opts.seconds * 0.6, tr, run, observe);
  oracle.check(run);
  session_counts(served->svc, {"div"}, run).report(run);
  if (const double cov = report_trace(ls, tr, run); cov < 0.9)
    run.fail("layer spans explain " + number(cov) +
             " of request time, below 0.9");
  write_spans(opts, tr);

  // The supervisor: the first round through a fresh one-worker
  // supervisor, paired line by line with the same requests on the fresh
  // untraced service above; then with three more clients, each sending the
  // first round of its own seed so that no client answers from another's
  // cached results.
  std::vector<std::vector<std::string>> rounds = {script(opts.seed)()};
  for (unsigned c = 1; c < kFleetClients; ++c)
    rounds.push_back(script(derive_seed(opts.seed, 200 + c))());
  const std::vector<std::string>& first = rounds.front();
  const Supervised one = supervised(setup, {first}, run);
  const Supervised many = supervised(setup, rounds, run);
  std::vector<double> hop;
  for (std::size_t i = 0; i < first.size() && i < ls.untraced.lat_ms.size(); ++i)
    hop.push_back(one.ms[i] - ls.untraced.lat_ms[i]);
  run.metric("supervisor.hop_ms", median(hop), "ms");
  run.detail("supervisor_hop_ms", spread_detail(hop));
  run.metric("supervisor.queue_ms", median(many.ms) - median(one.ms), "ms");
  run.metric("supervisor.retries", one.retries + many.retries, "count");
  run.metric("supervisor.restarts", one.restarts + many.restarts, "count");

  probe_layers(div, run);
}

// --- output -------------------------------------------------------------------

std::string env_stamp(const Options& opts) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const bool optimized = flags.find("-O") != std::string::npos &&
                         flags.find("-O0") == std::string::npos;
  if (!optimized)
    std::cerr << "WARNING: the benchmark build is UNOPTIMIZED (" << type
              << ": '" << flags << "'); numbers are not comparable\n";
  if (hw < 4)
    std::cerr << "WARNING: hardware_threads = " << hw
              << " < 4; ROADMAP numbers must come from >= 4 hardware threads\n";
  JsonWriter w(0);
  w.begin_object();
  w.key("nproc").value(static_cast<long long>(nproc));
  w.key("hardware_threads").value(hw);
  w.key("build_type").value(type);
  w.key("cxx_flags").value(flags);
  w.key("optimized").value(optimized);
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("commit").value(opts.commit);
  w.key("workload").value(opts.workload);
  w.key("seed").value(opts.seed);
  w.key("seconds").value(opts.seconds);
  w.key("trace").value(opts.trace);
  w.end_object();
  return w.str();
}

/// Per-layer metric names are module-qualified ("json.write_ms"); the
/// end-to-end ones are bare ("latency_p50_ms").  A run reports one kind.
bool reported(const Metric& m, bool trace) {
  return (m.name.find('.') != std::string::npos) == trace;
}

std::string result_line(const Run& run, bool trace) {
  JsonWriter w(0);
  w.begin_object();
  w.key("correct").value(run.failed == 0);
  w.key("attempted").value(run.attempted);
  w.key("failed").value(run.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : run.metrics) {
    if (!reported(m, trace)) continue;
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace

int run_workload(const Options& opts) {
  const std::map<std::string, void (*)(const Options&, Run&)> workloads = {
      {"alu_mix", alu_mix},
      {"div_whatif", div_whatif},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) {
    std::cerr << "unknown workload '" << opts.workload << "'\n";
    return 2;
  }
  const std::string env = env_stamp(opts);
  Run run;
  it->second(opts, run);
  for (const std::string& p : run.problems) std::cerr << "FAILED: " << p << "\n";

  const std::string result = result_line(run, opts.trace);
  std::string other = "{";
  for (const Metric& m : run.metrics)
    if (!reported(m, opts.trace))
      other += (other.size() > 1 ? "," : "") + quote(m.name) + ":" +
               number(m.value);
  run.detail("other_metrics", other + "}");
  // The detailed record: environment, details and metrics.
  std::string details = "{";
  for (const auto& [k, v] : run.details)
    details += (details.size() > 1 ? "," : "") + quote(k) + ":" + v;
  details += "}";
  std::filesystem::create_directories(opts.out_dir);
  std::ofstream(opts.out_dir + "/" + opts.workload + "-seed" +
                std::to_string(opts.seed) + (opts.trace ? "-trace" : "") +
                ".json")
      << "{\"environment\":" << env << ",\"details\":" << details
      << ",\"result\":" << result << "}\n";
  std::cout << "{\"environment\":" << env << ",\"details\":" << details
            << "}\n";
  std::cout << result << std::endl;
  return run.failed == 0 ? 0 : 1;
}

int make_reference(const Options& opts, const std::string& circuit) {
  ProtestService svc;
  Run run;
  call(svc, load_line(circuit, "\"circuit\":" + quote(circuit)), run);
  if (run.failed) {
    std::cerr << run.problems.front() << "\n";
    return 1;
  }
  const auto session = svc.registry().open(circuit);
  const protest::Netlist& net = session->netlist();
  const auto& faults = session->faults();
  const auto t0 = Clock::now();
  const auto sim = protest::simulate_faults(
      net, faults,
      protest::PatternSet::random(net.inputs().size(), kRefPatterns,
                                  kRefPatternSeed),
      protest::FaultSimMode::CountDetections);
  std::cerr << circuit << ": " << faults.size() << " faults, "
            << kRefPatterns << " patterns in " << since(t0) << " s\n";
  JsonWriter w(0);
  w.begin_object();
  w.key("circuit").value(circuit);
  w.key("universe").value("structural");
  w.key("patterns").value(kRefPatterns);
  w.key("pattern_seed").value(kRefPatternSeed);
  w.key("faults").begin_array();
  for (const protest::Fault& f : faults) w.value(protest::to_string(net, f));
  w.end_array();
  w.key("detect_counts").begin_array();
  for (const std::uint64_t c : sim.detect_count) w.value(c);
  w.end_array();
  w.end_object();
  std::filesystem::create_directories(opts.data_dir);
  std::ofstream(opts.data_dir + "/" + circuit + ".json") << w.str() << "\n";
  return 0;
}

}  // namespace perfbench
