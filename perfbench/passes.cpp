#include "passes.hpp"

#include <algorithm>
#include <chrono>

#include "lint/fault_analyze.hpp"
#include "prob/signal_prob.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The verb of a generated request line ({"verb":"...", first).
std::string verb_of(std::string_view line) {
  const std::size_t end = line.find('"', 9);
  return end == std::string_view::npos ? ""
                                       : std::string(line.substr(9, end - 9));
}

/// Runs one request of a pass through `send` and records its latency,
/// status and digest.
template <typename F>
std::string pass_step(const std::string& line, Pass& p, Run& run, F&& send) {
  const auto t = Clock::now();
  std::string resp = send();
  p.lat_ms.push_back(since(t) * 1e3);
  p.verbs.push_back(verb_of(line));
  ++run.attempted;
  if (response_ok(resp))
    ++p.ok;
  else
    run.fail("request failed: " + line.substr(0, 120) + " -> " +
             resp.substr(0, 240));
  p.digests.push_back(digest(resp));
  return resp;
}

/// The fault_bounds verb's payload, written field for field as the
/// service writes it: the traced pass must produce the same bytes.
std::string fault_bounds_payload(const std::string& name,
                                 const protest::Netlist& net,
                                 const std::vector<protest::Fault>& faults,
                                 const protest::FaultAnalysis& fa) {
  constexpr std::size_t kMaxFaultEntries = 4096;
  const std::size_t shown = std::min(fa.bounds.size(), kMaxFaultEntries);
  protest::JsonWriter w(0);
  w.begin_object();
  w.key("netlist").value(name);
  w.key("summary").begin_object();
  w.key("faults").value(fa.bounds.size());
  w.key("proven_undetectable").value(fa.undetectable);
  w.key("unexcitable").value(fa.unexcitable);
  w.key("unobservable").value(fa.unobservable);
  w.key("proven_detectable").value(fa.detectable);
  w.key("uncertain").value(fa.uncertain);
  w.key("truncated_sweeps").value(fa.truncated_sweeps);
  w.key("frechet_widened").value(fa.frechet_widened);
  w.key("learned_constants").value(fa.learned_constants);
  w.key("settled_fraction").value(fa.settled_fraction());
  w.end_object();
  w.key("faults").begin_array();
  for (std::size_t f = 0; f < shown; ++f) {
    const protest::FaultBound& b = fa.bounds[f];
    w.begin_object();
    w.key("fault").value(protest::to_string(net, faults[f]));
    w.key("lo").value(b.lo);
    w.key("hi").value(b.hi);
    w.key("verdict").value(protest::to_string(b.verdict));
    if (b.cause != protest::UndetectableCause::None)
      w.key("cause").value(protest::to_string(b.cause));
    if (b.truncated) w.key("truncated").value(true);
    w.end_object();
  }
  w.end_array();
  if (shown < fa.bounds.size()) w.key("faults_truncated").value(true);
  w.end_object();
  return w.str();
}

/// Runs one request on `svc` as its layer calls, each in its own span
/// under the request's root span; returns the response line.
std::string traced_step(protest::ProtestService& svc, const std::string& line,
                        std::uint64_t rid, Tracer& tr) {
  using protest::ServiceRequest;
  using protest::ServiceResponse;
  using protest::ServiceVerb;
  const int root = tr.open("request", rid);
  int s = tr.open("json.read", rid, root);
  protest::parse_json(line);
  tr.close(s);
  s = tr.open("service.decode", rid, root);
  const ServiceRequest req = ServiceRequest::from_json(line);
  tr.close(s);
  const bool bounds = req.verb == ServiceVerb::FaultBounds;
  std::string resp;
  if (bounds || req.verb == ServiceVerb::Analyze ||
      req.verb == ServiceVerb::Perturb) {
    s = tr.open("registry.open", rid, root);
    const auto session = svc.registry().open(req.netlist);
    tr.close(s);
    const protest::InputProbs tuple =
        req.input_probs.empty()
            ? protest::uniform_input_probs(session->netlist(),
                                           req.p.value_or(0.5))
            : req.input_probs;
    // fault_bounds asks for that artifact alone, as the service does.
    protest::AnalysisRequest artifacts =
        req.artifacts.value_or(protest::AnalysisRequest{});
    if (bounds) {
      for (const protest::ArtifactName& a : protest::artifact_name_table())
        artifacts.*a.flag = false;
      artifacts.fault_bounds = true;
    }
    s = tr.open("session.analyze", rid, root);
    protest::AnalysisResult res = session->analyze(tuple, artifacts);
    tr.close(s);
    if (req.verb == ServiceVerb::Perturb) {
      s = tr.open(req.screen ? "session.perturb_screen" : "session.perturb",
                  rid, root);
      res = req.screen
                ? session->perturb_screen(res, req.input_index, req.new_p)
                : session->perturb(res, req.input_index, req.new_p);
      tr.close(s);
    }
    const protest::FaultAnalysis* fa = nullptr;
    if (bounds) {
      s = tr.open("lint.fault_bounds", rid, root);
      fa = &res.fault_bounds();
      tr.close(s);
    }
    s = tr.open("json.write", rid, root);
    std::string payload =
        bounds ? fault_bounds_payload(req.netlist, session->netlist(),
                                      session->faults(), *fa)
               : res.to_json(0);
    tr.close(s);
    s = tr.open("service.respond", rid, root);
    resp = ServiceResponse::success(req, std::move(payload)).to_json(0);
    tr.close(s);
  } else {
    s = tr.open(std::string(kDispatchSpan), rid, root);
    resp = svc.handle_line(line);
    tr.close(s);
  }
  tr.close(root);
  return resp;
}

}  // namespace

void Run::fail(std::string why) {
  ++failed;
  if (problems.size() < 20) problems.push_back(std::move(why));
}

void Run::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Run::detail(std::string key, std::string json) {
  details.emplace_back(std::move(key), std::move(json));
}

void Run::merge(Run&& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (std::string& why : other.problems)
    if (problems.size() < 20) problems.push_back(std::move(why));
}

std::string number(double v) {
  protest::JsonWriter w(0);
  w.value(v);
  return w.str();
}

std::string call(protest::ServiceEndpoint& ep, const std::string& line,
                 Run& run) {
  ++run.attempted;
  std::string resp = ep.handle_line(line);
  if (!response_ok(resp))
    run.fail("request failed: " + line.substr(0, 120) + " -> " +
             resp.substr(0, 240));
  return resp;
}

std::string_view payload_of(std::string_view resp) {
  const std::size_t k = resp.find(",\"result\":");
  if (k == std::string_view::npos || resp.size() < k + 11) return {};
  return resp.substr(k + 10, resp.size() - k - 11);
}

protest::JsonValue parse_payload(std::string_view resp) {
  return protest::parse_json(payload_of(resp));
}

Pass timed_pass(protest::ServiceEndpoint& ep, const Batch& next,
                double seconds, Run& run, const Observer& observe) {
  Pass p;
  const auto t0 = Clock::now();
  while (since(t0) < seconds) {
    for (const std::string& line : next()) {
      const std::string resp =
          pass_step(line, p, run, [&] { return ep.handle_line(line); });
      if (observe) observe(line, resp);
    }
  }
  p.wall_s = since(t0);
  return p;
}

Lockstep lockstep_pass(protest::ProtestService& plain,
                       protest::ProtestService& traced, const Batch& next,
                       double seconds, Tracer& tr, Run& run,
                       const Observer& observe) {
  Lockstep ls;
  std::uint64_t rid = 0;
  const auto t0 = Clock::now();
  do {
    for (const std::string& line : next()) {
      ++rid;
      auto run_traced = [&] {
        pass_step(line, ls.traced, run,
                  [&] { return traced_step(traced, line, rid, tr); });
      };
      if (rid % 2) run_traced();
      const std::string resp = pass_step(
          line, ls.untraced, run, [&] { return plain.handle_line(line); });
      if (observe) observe(line, resp);
      if (rid % 2 == 0) run_traced();
    }
  } while (since(t0) < seconds);
  return ls;
}

}  // namespace perfbench
