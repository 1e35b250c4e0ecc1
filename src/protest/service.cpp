#include "protest/service.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <thread>

#include "analysis/json.hpp"
#include "circuits/zoo.hpp"
#include "lint/lint.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/dsl.hpp"
#include "optimize/hill_climb.hpp"

namespace protest {

// --- the registry -----------------------------------------------------------

/// The expensive resident state: the session (engine plans, tuple cache,
/// memoized artifacts) and a share of the registration's netlist, which
/// the session reads by reference.  Held by shared_ptr and co-owned by
/// every handed-out session pointer, so neither eviction nor a replacing
/// registration can pull state out from under an in-flight query.
struct SessionRegistry::Resident {
  Resident(std::shared_ptr<const Netlist> net, SessionOptions o)
      : netlist(std::move(net)), session(*netlist, std::move(o)) {}

  std::shared_ptr<const Netlist> netlist;
  AnalysisSession session;
};

std::shared_ptr<AnalysisSession> SessionRegistry::lease(
    const std::shared_ptr<Resident>& r) {
  return std::shared_ptr<AnalysisSession>(r, &r->session);
}

SessionRegistry::SessionRegistry(std::size_t max_resident,
                                 ParallelConfig parallel)
    : max_resident_(max_resident), exec_(make_executor(parallel)) {}

void SessionRegistry::register_netlist(std::string name, Netlist net,
                                       SessionOptions opts) {
  auto shared = std::make_shared<const Netlist>(std::move(net));
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[std::move(name)];
  e = Entry{};  // replacing a registration drops its resident session
  e.netlist = std::move(shared);
  e.opts = std::move(opts);
}

std::shared_ptr<AnalysisSession> SessionRegistry::open(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw ServiceError("unknown_netlist",
                       "no netlist registered under '" + name + "'");
  Entry& e = it->second;
  e.last_use = ++use_counter_;
  if (!e.resident) {
    // Revival builds the engine and fault list under the registry lock —
    // concurrent opens of OTHER names briefly queue behind it; the
    // expensive per-netlist plans build lazily inside the session later.
    SessionOptions opts = e.opts;
    opts.parallel.executor = exec_;
    e.resident = std::make_shared<Resident>(e.netlist, std::move(opts));
    enforce_cap_locked(&e);
  }
  return lease(e.resident);
}

std::shared_ptr<AnalysisSession> SessionRegistry::find_resident(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || !it->second.resident) return nullptr;
  return lease(it->second.resident);
}

void SessionRegistry::enforce_cap_locked(const Entry* keep) {
  if (max_resident_ == 0) return;
  for (;;) {
    std::size_t resident = 0;
    Entry* lru = nullptr;
    for (auto& [name, e] : entries_) {
      if (!e.resident) continue;
      ++resident;
      if (&e != keep && (!lru || e.last_use < lru->last_use)) lru = &e;
    }
    if (resident <= max_resident_ || !lru) return;
    lru->resident.reset();  // in-flight leases keep their state alive
  }
}

bool SessionRegistry::evict(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || !it->second.resident) return false;
  it->second.resident.reset();
  return true;
}

bool SessionRegistry::unregister(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.erase(name) > 0;
}

std::vector<std::string> SessionRegistry::registered_names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, e] : entries_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::vector<std::string> SessionRegistry::resident_names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint64_t, std::string>> by_use;
  for (const auto& [name, e] : entries_)
    if (e.resident) by_use.emplace_back(e.last_use, name);
  std::sort(by_use.begin(), by_use.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> names;
  names.reserve(by_use.size());
  for (auto& [use, name] : by_use) names.push_back(std::move(name));
  return names;
}

std::size_t SessionRegistry::num_resident() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, e] : entries_)
    if (e.resident) ++n;
  return n;
}

// --- the protocol -----------------------------------------------------------

namespace {

using enum VerbClass;

/// Work verbs are the only ones a job may run: job control nested in a
/// job could deadlock (a waiting job occupying the worker its target
/// needs), shutdown must act on the serving loop itself, and a ticketed
/// load or evict racing pipelined work would undo the barrier ordering.
/// Only idempotent reads are retried: optimize is stochastic and
/// expensive, and evict, load_netlist and job control change state.
constexpr VerbSpec kVerbs[] = {
    {ServiceVerb::LoadNetlist, "load_netlist", Barrier, false},
    {ServiceVerb::Lint, "lint", Work, true},
    {ServiceVerb::FaultBounds, "fault_bounds", Work, true},
    {ServiceVerb::Analyze, "analyze", Work, true},
    {ServiceVerb::Perturb, "perturb", Work, true},
    {ServiceVerb::Optimize, "optimize", Work, false},
    {ServiceVerb::Stats, "stats", Inline, true},
    {ServiceVerb::Evict, "evict", Barrier, false},
    {ServiceVerb::Shutdown, "shutdown", Barrier, false},
    {ServiceVerb::Submit, "submit", Inline, false},
    {ServiceVerb::Poll, "poll", Inline, false},
    {ServiceVerb::Wait, "wait", Inline, false},
    {ServiceVerb::Cancel, "cancel", Inline, false},
    {ServiceVerb::Jobs, "jobs", Inline, false},
};

constexpr bool rows_in_declaration_order() {
  for (std::size_t i = 0; i < std::size(kVerbs); ++i)
    if (kVerbs[i].verb != static_cast<ServiceVerb>(i)) return false;
  return static_cast<std::size_t>(ServiceVerb::Jobs) + 1 == std::size(kVerbs);
}
static_assert(rows_in_declaration_order(),
              "one verb table row per ServiceVerb, in declaration order");

/// "a/b/c": the names of the work verbs, the ones `submit` accepts.
std::string work_verb_names() {
  std::string names;
  for (const VerbSpec& spec : kVerbs) {
    if (spec.dispatch != Work) continue;
    if (!names.empty()) names += '/';
    names += spec.name;
  }
  return names;
}

std::vector<double> to_number_list(const JsonValue& v) {
  std::vector<double> out;
  out.reserve(v.as_array().size());
  for (const JsonValue& e : v.as_array()) out.push_back(e.as_number());
  return out;
}

AnalysisRequest artifacts_from_names(const JsonValue& list) {
  // Decodes through the artifact_name_table() shared with the CLI's
  // --artifacts parser, so the two surfaces can never drift apart.
  AnalysisRequest req;
  for (const ArtifactName& a : artifact_name_table()) req.*a.flag = false;
  for (const JsonValue& e : list.as_array()) {
    const std::string& name = e.as_string();
    if (!set_artifact(req, name))
      throw std::runtime_error("unknown artifact '" + name +
                               "' (available: " + known_artifact_names() +
                               ")");
  }
  return req;
}

void write_number_list(JsonWriter& w, std::string_view key,
                       std::span<const double> values) {
  w.key(key).begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
}

void write_string_list(JsonWriter& w, std::string_view key,
                       std::span<const std::string> values) {
  w.key(key).begin_array();
  for (const std::string& v : values) w.value(v);
  w.end_array();
}

}  // namespace

std::span<const VerbSpec> verb_table() { return kVerbs; }

const VerbSpec& spec_of(ServiceVerb verb) {
  return kVerbs[static_cast<std::size_t>(verb)];
}

const VerbSpec* find_verb(std::string_view name) {
  for (const VerbSpec& spec : kVerbs)
    if (spec.name == name) return &spec;
  return nullptr;
}

std::string_view to_string(ServiceVerb verb) { return spec_of(verb).name; }

ServiceVerb verb_from_string(std::string_view name) {
  if (const VerbSpec* spec = find_verb(name)) return spec->verb;
  std::string known;
  for (const VerbSpec& spec : kVerbs) {
    known += known.empty() ? "" : " ";
    known += spec.name;
  }
  throw ServiceError("unknown_verb", "unknown verb '" + std::string(name) +
                                         "' (available: " + known + ")");
}

std::uint64_t protocol_uint(const JsonValue& v) {
  const double d = v.as_number();
  if (!(d >= 0.0) || d != std::floor(d) || d > 9007199254740992.0)
    throw std::runtime_error("expected a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

std::string ServiceRequest::to_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.key("verb").value(to_string(verb));
  w.key("id").value(id);
  if (!netlist.empty()) w.key("netlist").value(netlist);
  if (!circuit.empty()) w.key("circuit").value(circuit);
  if (!source.empty()) w.key("source").value(source);
  if (!engine.empty()) w.key("engine").value(engine);
  if (seed) w.key("seed").value(*seed);
  if (patterns) w.key("patterns").value(*patterns);
  if (max_cached_results)
    w.key("max_cached_results").value(*max_cached_results);
  if (strict) w.key("strict").value(true);
  if (!passes.empty()) write_string_list(w, "passes", passes);
  if (faults) w.key("faults").value(true);
  if (p) w.key("p").value(*p);
  if (!input_probs.empty()) write_number_list(w, "input_probs", input_probs);
  if (artifacts) {
    std::vector<std::string> names;
    for (const ArtifactName& a : artifact_name_table())
      if ((*artifacts).*a.flag) names.emplace_back(a.name);
    write_string_list(w, "artifacts", names);
    write_number_list(w, "d_grid", artifacts->d_grid);
    write_number_list(w, "e_grid", artifacts->e_grid);
  }
  if (verb == ServiceVerb::Perturb) {
    w.key("input_index").value(input_index);
    w.key("new_p").value(new_p);
    if (screen) w.key("screen").value(true);
  }
  if (n_parameter) w.key("n").value(*n_parameter);
  if (sweeps) w.key("sweeps").value(*sweeps);
  if (subrequest) {
    // The wrapped verb rides along as a compact raw splice: its own
    // to_json is already canonical, so re-encoding stays a fixed point.
    w.key("request");
    w.raw(subrequest->to_json(0));
  }
  if (job) w.key("job").value(*job);
  if (timeout_ms) w.key("timeout_ms").value(*timeout_ms);
  if (deadline_ms) w.key("deadline_ms").value(*deadline_ms);
  w.end_object();
  return w.str();
}

ServiceRequest ServiceRequest::from_json_value(const JsonValue& doc) {
  if (!doc.is_object())
    throw ServiceError("bad_request", "request must be a JSON object");
  ServiceRequest r;
  bool saw_verb = false;
  std::optional<AnalysisRequest> artifact_flags;
  std::optional<std::vector<double>> d_grid, e_grid;
  for (const JsonValue::Member& m : doc.as_object()) {
    const std::string& key = m.first;
    const JsonValue& v = m.second;
    try {
      if (key == "verb") {
        r.verb = verb_from_string(v.as_string());
        saw_verb = true;
      } else if (key == "id") {
        r.id = protocol_uint(v);
      } else if (key == "netlist") {
        r.netlist = v.as_string();
      } else if (key == "circuit") {
        r.circuit = v.as_string();
      } else if (key == "source") {
        r.source = v.as_string();
      } else if (key == "engine") {
        r.engine = v.as_string();
      } else if (key == "seed") {
        r.seed = protocol_uint(v);
      } else if (key == "patterns") {
        r.patterns = static_cast<std::size_t>(protocol_uint(v));
      } else if (key == "max_cached_results") {
        r.max_cached_results = static_cast<std::size_t>(protocol_uint(v));
      } else if (key == "strict") {
        r.strict = v.as_bool();
      } else if (key == "passes") {
        for (const JsonValue& e : v.as_array())
          r.passes.push_back(e.as_string());
      } else if (key == "faults") {
        r.faults = v.as_bool();
      } else if (key == "p") {
        r.p = v.as_number();
      } else if (key == "input_probs") {
        r.input_probs = to_number_list(v);
      } else if (key == "artifacts") {
        artifact_flags = artifacts_from_names(v);
      } else if (key == "d_grid") {
        d_grid = to_number_list(v);
      } else if (key == "e_grid") {
        e_grid = to_number_list(v);
      } else if (key == "input_index") {
        r.input_index = static_cast<std::size_t>(protocol_uint(v));
      } else if (key == "new_p") {
        r.new_p = v.as_number();
      } else if (key == "screen") {
        r.screen = v.as_bool();
      } else if (key == "n") {
        r.n_parameter = protocol_uint(v);
      } else if (key == "sweeps") {
        // Checked before narrowing: 2^32 must not become 0 sweeps.
        constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
        const std::uint64_t sweeps = protocol_uint(v);
        if (sweeps > kMax)
          throw std::runtime_error("expected an integer of at most " +
                                   std::to_string(kMax));
        r.sweeps = static_cast<unsigned>(sweeps);
      } else if (key == "request") {
        r.subrequest = std::make_shared<ServiceRequest>(from_json_value(v));
      } else if (key == "job") {
        r.job = protocol_uint(v);
      } else if (key == "timeout_ms") {
        r.timeout_ms = protocol_uint(v);
      } else if (key == "deadline_ms") {
        // Same guarded conversion as request ids: negative, fractional,
        // or beyond-2^53 budgets are bad_request, never wrapped into a
        // surprise deadline.
        r.deadline_ms = protocol_uint(v);
      } else {
        throw std::runtime_error("unknown request member");
      }
    } catch (const ServiceError&) {
      throw;
    } catch (const std::exception& e) {
      throw ServiceError("bad_request",
                         "member '" + key + "': " + e.what());
    }
  }
  if (!saw_verb) throw ServiceError("bad_request", "missing 'verb'");
  // Grids imply an artifact request (with the default artifact set when
  // none was named explicitly).
  if (artifact_flags || d_grid || e_grid) {
    r.artifacts = artifact_flags.value_or(AnalysisRequest{});
    if (d_grid) r.artifacts->d_grid = std::move(*d_grid);
    if (e_grid) r.artifacts->e_grid = std::move(*e_grid);
  }
  return r;
}

namespace {

/// The one parse of a request line.  `doc` keeps the parsed document for
/// an error echo; every failure surfaces as a ServiceError (a JSON syntax
/// error as "bad_request").
ServiceRequest parse_request(std::string_view line, JsonValue& doc) {
  try {
    doc = parse_json(line);
    return ServiceRequest::from_json_value(doc);
  } catch (const ServiceError&) {
    throw;
  } catch (const std::exception& e) {
    throw ServiceError("bad_request", e.what());
  }
}

}  // namespace

ServiceRequest ServiceRequest::from_json(std::string_view text) {
  JsonValue doc;
  return parse_request(text, doc);
}

ServiceResponse ServiceResponse::success(const ServiceRequest& req,
                                         std::string result_json) {
  ServiceResponse resp;
  resp.id = req.id;
  resp.verb = std::string(to_string(req.verb));
  resp.ok = true;
  resp.result_json = std::move(result_json);
  return resp;
}

ServiceResponse ServiceResponse::failure(std::uint64_t id,
                                         std::string_view verb,
                                         const std::string& code,
                                         const std::string& message) {
  ServiceResponse resp;
  resp.id = id;
  resp.verb = std::string(verb);
  resp.ok = false;
  resp.error_code = code;
  resp.error_message = message;
  return resp;
}

std::string ServiceResponse::to_json(int indent) const {
  JsonWriter w(indent);
  w.begin_object();
  w.key("id").value(id);
  w.key("verb").value(verb);
  w.key("ok").value(ok);
  if (ok) {
    w.key("result");
    if (result_json.empty())
      w.null();
    else
      w.raw(result_json);
  } else {
    w.key("error").begin_object();
    w.key("code").value(error_code);
    w.key("message").value(error_message);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

ServiceResponse ServiceResponse::from_json_value(const JsonValue& doc) {
  if (!doc.is_object())
    throw ServiceError("bad_request", "response must be a JSON object");
  ServiceResponse resp;
  try {
    resp.id = protocol_uint(doc.at("id"));
    resp.verb = doc.at("verb").as_string();
    resp.ok = doc.at("ok").as_bool();
    if (resp.ok) {
      const JsonValue& result = doc.at("result");
      // Re-serializing reproduces the original bytes: both sides use the
      // same writer and its double format round-trips.
      if (!result.is_null()) resp.result_json = protest::to_json(result, 0);
    } else {
      const JsonValue& error = doc.at("error");
      resp.error_code = error.at("code").as_string();
      resp.error_message = error.at("message").as_string();
    }
  } catch (const ServiceError&) {
    throw;
  } catch (const std::exception& e) {
    throw ServiceError("bad_request", e.what());
  }
  return resp;
}

ServiceResponse ServiceResponse::from_json(std::string_view text) {
  try {
    return from_json_value(parse_json(text));
  } catch (const ServiceError&) {
    throw;
  } catch (const std::exception& e) {
    throw ServiceError("bad_request", e.what());
  }
}

// --- the service ------------------------------------------------------------

Netlist netlist_from_text(const std::string& text) {
  // DSL descriptions contain a 'module' definition; .bench never does.
  if (text.find("module ") != std::string::npos) return elaborate_dsl(text);
  return read_bench_string(text);
}

ProtestService::ProtestService(ServiceConfig config)
    : config_(std::move(config)),
      registry_(config_.max_resident_sessions, config_.parallel),
      jobs_(config_.job_workers) {}

namespace {

/// The tuple an analyze/perturb request targets.
InputProbs request_tuple(const ServiceRequest& req, const Netlist& net) {
  if (!req.input_probs.empty()) return req.input_probs;
  return uniform_input_probs(net, req.p.value_or(0.5));
}

void require_netlist_name(const ServiceRequest& req) {
  if (req.netlist.empty())
    throw ServiceError("bad_request",
                       "verb '" + std::string(to_string(req.verb)) +
                           "' requires a 'netlist' name");
}

std::uint64_t require_job_id(const ServiceRequest& req) {
  if (!req.job)
    throw ServiceError("bad_request",
                       "verb '" + std::string(to_string(req.verb)) +
                           "' requires a 'job' ticket id");
  return *req.job;
}

/// Builds lint options from a request: pass subset + the prob-bounds
/// input probability.  run_lint rejects unknown pass names with
/// std::invalid_argument, which handle() answers as bad_request.
LintOptions lint_options_from(const ServiceRequest& req) {
  LintOptions opts;
  opts.passes = req.passes;
  opts.faults = req.faults;
  if (req.p) opts.p = *req.p;
  return opts;
}

/// The poll/wait result payload.  A done job splices the inner verb's
/// ServiceResponse back BYTE-IDENTICALLY under "response" — the central
/// async-API guarantee; a cancelled job carries no payload at all.
std::string job_payload(const JobInfo& info) {
  JsonWriter w(0);
  w.begin_object();
  w.key("job").value(info.id);
  w.key("verb").value(info.label);
  w.key("state").value(to_string(info.state));
  if (info.state == JobState::Done) {
    w.key("response");
    if (info.payload.empty())
      w.null();
    else
      w.raw(info.payload);
  }
  if (info.state == JobState::Failed) w.key("error").value(info.error);
  w.end_object();
  return w.str();
}

}  // namespace

std::string ProtestService::dispatch(const ServiceRequest& req) {
  switch (req.verb) {
    case ServiceVerb::LoadNetlist: {
      require_netlist_name(req);
      if (req.circuit.empty() == req.source.empty())
        throw ServiceError("bad_request",
                           "load_netlist requires exactly one of 'circuit' "
                           "(registry name) or 'source' (netlist text)");
      Netlist net = req.circuit.empty() ? netlist_from_text(req.source)
                                        : make_circuit(req.circuit);
      // Strict mode: the correctness gate for the served fleet — reject
      // netlists with error-severity lint findings before they ever
      // become resident.
      LintReport lint_report;
      if (req.strict) {
        lint_report = run_lint(net, lint_options_from(req));
        if (lint_report.errors > 0) {
          std::string first;
          for (const LintDiagnostic& d : lint_report.diagnostics) {
            if (d.severity == LintSeverity::Error) {
              first = d.message;
              break;
            }
          }
          throw ServiceError(
              "lint_failed",
              "strict load rejected '" + req.netlist + "': " +
                  std::to_string(lint_report.errors) +
                  " error-severity lint finding(s); first: " + first);
        }
      }
      SessionOptions opts = config_.session_defaults;
      if (!req.engine.empty()) opts.engine = req.engine;
      if (req.seed) opts.monte_carlo.seed = *req.seed;
      if (req.patterns) opts.monte_carlo.num_patterns = *req.patterns;
      if (req.max_cached_results)
        opts.max_cached_results = *req.max_cached_results;
      registry_.register_netlist(req.netlist, std::move(net), std::move(opts));
      const std::shared_ptr<AnalysisSession> session =
          registry_.open(req.netlist);
      JsonWriter w(0);
      w.begin_object();
      w.key("netlist").value(req.netlist);
      w.key("engine").value(session->engine().name());
      const Netlist& n = session->netlist();
      w.key("inputs").value(n.inputs().size());
      w.key("outputs").value(n.outputs().size());
      w.key("gates").value(n.num_gates());
      w.key("faults").value(session->faults().size());
      if (req.strict) {
        session->record_lint(lint_report.errors, lint_report.warnings,
                             lint_report.infos);
        w.key("lint").begin_object();
        w.key("errors").value(lint_report.errors);
        w.key("warnings").value(lint_report.warnings);
        w.key("infos").value(lint_report.infos);
        w.end_object();
      }
      const std::vector<std::string> resident = registry_.resident_names();
      write_string_list(w, "resident", resident);
      w.end_object();
      return w.str();
    }

    case ServiceVerb::Lint: {
      require_netlist_name(req);
      const std::shared_ptr<AnalysisSession> session =
          registry_.open(req.netlist);
      const LintReport report =
          run_lint(session->netlist(), lint_options_from(req));
      session->record_lint(report.errors, report.warnings, report.infos);
      JsonWriter w(0);
      w.begin_object();
      w.key("netlist").value(req.netlist);
      w.key("report");
      w.raw(report.to_json(0));
      w.end_object();
      return w.str();
    }

    case ServiceVerb::FaultBounds: {
      require_netlist_name(req);
      const std::shared_ptr<AnalysisSession> session =
          registry_.open(req.netlist);
      // Ride the session's memoized artifact: request ONLY fault_bounds
      // so the analyze computes nothing else, then read the analysis off
      // the result.  A repeat query on the same tuple is a cache hit.
      AnalysisRequest artifacts;
      for (const ArtifactName& a : artifact_name_table())
        artifacts.*a.flag = false;
      artifacts.fault_bounds = true;
      const AnalysisResult res =
          session->analyze(request_tuple(req, session->netlist()), artifacts);
      // Large netlists would otherwise dominate the response line; the
      // summary always ships, the per-fault list is capped.
      constexpr std::size_t kMaxFaultEntries = 4096;
      JsonWriter w(0);
      w.begin_object();
      w.key("netlist").value(req.netlist);
      write_fault_bounds(w, session->netlist(), session->faults(),
                         res.fault_bounds(), kMaxFaultEntries,
                         registry_.executor().get());
      w.end_object();
      return w.str();
    }

    case ServiceVerb::Analyze: {
      require_netlist_name(req);
      const std::shared_ptr<AnalysisSession> session =
          registry_.open(req.netlist);
      const AnalysisRequest artifacts =
          req.artifacts.value_or(AnalysisRequest{});
      return session
          ->analyze(request_tuple(req, session->netlist()), artifacts)
          .to_json(0);
    }

    case ServiceVerb::Perturb: {
      require_netlist_name(req);
      const std::shared_ptr<AnalysisSession> session =
          registry_.open(req.netlist);
      const AnalysisRequest artifacts =
          req.artifacts.value_or(AnalysisRequest{});
      // The base analyze is a cache hit when the client analyzed the
      // tuple before — the resident-session payoff: the perturb then
      // re-evaluates only the changed input's fanout cone.
      const AnalysisResult base =
          session->analyze(request_tuple(req, session->netlist()), artifacts);
      const AnalysisResult perturbed =
          req.screen
              ? session->perturb_screen(base, req.input_index, req.new_p)
              : session->perturb(base, req.input_index, req.new_p);
      return perturbed.to_json(0);
    }

    case ServiceVerb::Optimize: {
      require_netlist_name(req);
      const std::shared_ptr<AnalysisSession> session =
          registry_.open(req.netlist);
      const std::uint64_t n_param = req.n_parameter.value_or(10'000);
      HillClimbOptions opts;
      if (req.sweeps) opts.max_sweeps = *req.sweeps;
      // The climb shares the resident session's engine and its plan;
      // concurrent analyze callers on the same netlist stay race-free.
      const HillClimbResult res = optimize_input_probs(*session, n_param, opts);
      JsonWriter w(0);
      w.begin_object();
      w.key("netlist").value(req.netlist);
      write_hill_climb(w, *session, n_param, res);
      w.end_object();
      return w.str();
    }

    case ServiceVerb::Stats: {
      JsonWriter w(0);
      if (req.netlist.empty()) {
        // Registry overview.
        w.begin_object();
        const std::vector<std::string> registered =
            registry_.registered_names();
        const std::vector<std::string> resident = registry_.resident_names();
        write_string_list(w, "registered", registered);
        write_string_list(w, "resident", resident);
        w.key("max_resident").value(registry_.max_resident());
        w.key("executor_workers").value(registry_.executor()->num_workers());
        w.end_object();
        return w.str();
      }
      // Named probe: never revives an evicted session (that would defeat
      // the point of asking) and never touches LRU order.
      const std::vector<std::string> registered = registry_.registered_names();
      if (std::find(registered.begin(), registered.end(), req.netlist) ==
          registered.end())
        throw ServiceError("unknown_netlist",
                           "no netlist registered under '" + req.netlist +
                               "'");
      const std::shared_ptr<AnalysisSession> session =
          registry_.find_resident(req.netlist);
      w.begin_object();
      w.key("netlist").value(req.netlist);
      w.key("resident").value(session != nullptr);
      if (session) {
        w.key("engine").value(session->engine().name());
        w.key("faults").value(session->faults().size());
        w.key("stats");
        session->stats().write(w);
      }
      w.end_object();
      return w.str();
    }

    case ServiceVerb::Evict: {
      require_netlist_name(req);
      const bool evicted = registry_.evict(req.netlist);
      JsonWriter w(0);
      w.begin_object();
      w.key("netlist").value(req.netlist);
      w.key("evicted").value(evicted);
      w.end_object();
      return w.str();
    }

    case ServiceVerb::Shutdown: {
      shutdown_.store(true, std::memory_order_release);
      // Unfinished jobs stop at their next checkpoint instead of pinning
      // the daemon's exit on a long Monte-Carlo budget.
      jobs_.cancel_all();
      JsonWriter w(0);
      w.begin_object();
      w.key("shutting_down").value(true);
      w.end_object();
      return w.str();
    }

    case ServiceVerb::Submit: {
      if (!req.subrequest)
        throw ServiceError("bad_request",
                           "submit requires a 'request' object (the verb to "
                           "run as a job)");
      const ServiceRequest inner = *req.subrequest;
      if (spec_of(inner.verb).dispatch != Work)
        throw ServiceError("bad_request",
                           "verb '" + std::string(to_string(inner.verb)) +
                               "' cannot run as a job (only the work verbs " +
                               work_verb_names() + " are submittable)");
      // The job re-enters handle(): the stored payload IS the synchronous
      // verb's ServiceResponse, serialized compactly — which is what
      // makes poll/wait byte-identical to the synchronous path.
      const JobTicket ticket =
          jobs_.submit(std::string(to_string(inner.verb)),
                       [this, inner] { return handle(inner).to_json(0); });
      JsonWriter w(0);
      w.begin_object();
      w.key("job").value(ticket.id);
      w.key("verb").value(to_string(inner.verb));
      w.key("state").value(to_string(ticket.state));
      w.end_object();
      return w.str();
    }

    case ServiceVerb::Poll:
    case ServiceVerb::Wait: {
      const std::uint64_t id = require_job_id(req);
      const std::optional<JobInfo> info =
          req.verb == ServiceVerb::Poll
              ? jobs_.poll(id)
              : jobs_.wait(id, req.timeout_ms
                                   ? std::optional<std::chrono::milliseconds>(
                                         std::chrono::milliseconds(
                                             *req.timeout_ms))
                                   : std::nullopt);
      if (!info)
        throw ServiceError("unknown_job",
                           "no job with ticket id " + std::to_string(id));
      return job_payload(*info);
    }

    case ServiceVerb::Cancel: {
      const std::uint64_t id = require_job_id(req);
      if (!jobs_.poll(id))
        throw ServiceError("unknown_job",
                           "no job with ticket id " + std::to_string(id));
      // requested == false means the job had already finished — the
      // result stands; a poll will return it.
      const bool requested = jobs_.cancel(id);
      JsonWriter w(0);
      w.begin_object();
      w.key("job").value(id);
      w.key("requested").value(requested);
      w.end_object();
      return w.str();
    }

    case ServiceVerb::Jobs: {
      JsonWriter w(0);
      w.begin_object();
      w.key("jobs").begin_array();
      for (const JobInfo& j : jobs_.jobs()) {
        w.begin_object();
        w.key("job").value(j.id);
        w.key("verb").value(j.label);
        w.key("state").value(to_string(j.state));
        w.end_object();
      }
      w.end_array();
      w.end_object();
      return w.str();
    }
  }
  throw ServiceError("unknown_verb", "unhandled verb");
}

ServiceResponse ProtestService::handle(const ServiceRequest& request) {
  const std::string_view verb = to_string(request.verb);
  // A deadline_ms budget becomes a deadline token linked to the ambient
  // token (a job's cancel, a connection's drop), installed for the span
  // of dispatch.  The existing checkpoints — Monte-Carlo shards, hill-
  // climb coordinates, sweep tasks — now observe the deadline for free.
  std::optional<CancelScope> deadline_scope;
  if (request.deadline_ms) {
    deadline_scope.emplace(CancelToken::with_deadline(
        current_cancel_token(),
        deadline_after(std::chrono::milliseconds(*request.deadline_ms))));
  }
  try {
    return ServiceResponse::success(request, dispatch(request));
  } catch (const OperationCancelled& e) {
    // An expired deadline THIS request declared answers structurally —
    // the caller asked for a budget and gets told it ran out.  Everything
    // else (explicit job cancel, an outer deadline) propagates to the
    // layer that owns it: the job layer records cancelled, an outer
    // handle() converts its own deadline.
    if (request.deadline_ms && e.reason() == CancelReason::DeadlineExceeded) {
      return ServiceResponse::failure(
          request.id, verb, "deadline_exceeded",
          "request exceeded its deadline_ms=" +
              std::to_string(*request.deadline_ms) + " budget");
    }
    throw;
  } catch (const ServiceError& e) {
    return ServiceResponse::failure(request.id, verb, e.code(), e.what());
  } catch (const std::invalid_argument& e) {
    // Validation thrown by the layers below (bad tuple arity, probability
    // out of range, unknown engine/circuit names, ...).
    return ServiceResponse::failure(request.id, verb, "bad_request", e.what());
  } catch (const std::exception& e) {
    return ServiceResponse::failure(request.id, verb, "internal", e.what());
  }
}

DecodedLine decode_line(std::string_view line) {
  DecodedLine d;
  JsonValue doc;
  try {
    d.request = parse_request(line, doc);
    d.id = d.request->id;
    d.verb = to_string(d.request->verb);
    return d;
  } catch (const ServiceError& e) {
    d.error_code = e.code();
    d.error_message = e.what();
  }
  // The echo for the error.  The verb comes first and the id is guarded
  // separately: a malformed id (negative, fractional, beyond 2^53, wrong
  // type) echoes id:0 beside the bad_request error — never a partially-
  // converted value, and never at the cost of the verb echo.
  if (doc.is_object()) {
    if (const JsonValue* v = doc.find("verb"); v && v->is_string())
      d.verb = v->as_string();
    if (const JsonValue* v = doc.find("id"); v && v->is_number()) {
      try {
        d.id = protocol_uint(*v);
      } catch (const std::exception&) {
        // the error above already names the bad member
      }
    }
  }
  return d;
}

std::string ServiceEndpoint::answer(const DecodedLine& line) {
  if (!line.request)
    return ServiceResponse::failure(line.id, line.verb, line.error_code,
                                    line.error_message)
        .to_json(0);
  return respond(*line.request);
}

// --- the daemon loops -------------------------------------------------------

namespace {

/// Serial or pipelined dispatch for one connection, by each line's verb
/// class (see ServeOptions).  With `slots` > 0, up to `slots` work lines
/// run concurrently on private threads, responses interleave on the sink
/// (serialized per line), and dispatch() BLOCKS while every slot is busy
/// — the connection-level backpressure that throttles a flooding client
/// by its own unfinished work.  With no slots every line answers inline.
class LineDispatcher {
 public:
  /// `sink` writes one complete response line (it is called under an
  /// internal lock, so lines never interleave) and returns false once the
  /// connection is dead.
  LineDispatcher(ServiceEndpoint& service, std::size_t slots,
                 std::function<bool(const std::string&)> sink)
      : service_(service), slots_(slots), sink_(std::move(sink)) {}

  ~LineDispatcher() {
    drain();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      work_cv_.notify_all();
    }
    for (std::thread& t : threads_) t.join();
  }

  /// Routes one decoded request line (moved from only when queued).
  /// Returns false once the sink has failed.
  bool dispatch(DecodedLine&& line) {
    const VerbSpec* spec = find_verb(line.verb);
    const VerbClass verb_class = spec ? spec->dispatch : Inline;
    if (verb_class == Work && slots_ > 0) {
      std::unique_lock<std::mutex> lock(mu_);
      if (threads_.empty()) {
        threads_.reserve(slots_);
        for (std::size_t i = 0; i < slots_; ++i)
          threads_.emplace_back([this] { worker_loop(); });
      }
      // Backpressure: stall the reader until a slot frees up.
      capacity_cv_.wait(lock, [&] {
        return inflight_ < slots_ || sink_failed_.load();
      });
      if (sink_failed_.load()) return false;
      ++inflight_;
      queue_.push_back(std::move(line));
      work_cv_.notify_one();
      return true;
    }
    // In-flight work completes before a barrier, so "load then query"
    // scripts and evict-after-analyze mean the same thing as in serial
    // mode.
    if (verb_class == Barrier) drain();
    return write_line(service_.answer(line));
  }

  /// Blocks until every dispatched work line has been answered.
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return inflight_ == 0; });
  }

  /// Cancels every in-flight work line at its next checkpoint.  Called
  /// when the connection is gone (hard reset, failed write): the work's
  /// responses have no reader, so finishing a long Monte-Carlo run would
  /// only burn the shared executor.  Ticketed jobs are NOT affected —
  /// they run under their own job tokens on the JobManager's threads and
  /// stay pollable from other connections.
  void cancel_inflight() { conn_token_.request_cancel(); }

  /// Writes one response line, serialized with the work slots' writes.
  /// Returns false once the sink has failed.
  bool write_line(const std::string& response) {
    const std::lock_guard<std::mutex> lock(out_mu_);
    if (sink_failed_.load()) return false;
    if (!sink_(response)) {
      sink_failed_.store(true);
      // Unblock a reader stalled on backpressure and stop burning cycles
      // on work nobody can read; workers still drain the queue (their
      // writes fail fast above).
      cancel_inflight();
      capacity_cv_.notify_all();
      return false;
    }
    return true;
  }

 private:
  void worker_loop() {
    for (;;) {
      DecodedLine line;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, nothing left
        line = std::move(queue_.front());
        queue_.pop_front();
      }
      try {
        const CancelScope scope(conn_token_);
        write_line(service_.answer(line));
      } catch (const OperationCancelled&) {
        // The connection dropped and cancel_inflight() fired: there is
        // nobody left to answer, so just release the slot.
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        --inflight_;
        done_cv_.notify_all();
        capacity_cv_.notify_one();
      }
    }
  }

  ServiceEndpoint& service_;
  const std::size_t slots_;  ///< 0 = serial
  const std::function<bool(const std::string&)> sink_;
  std::mutex mu_;                       ///< queue + inflight + stopping
  std::mutex out_mu_;                   ///< serializes sink writes
  std::condition_variable work_cv_;     ///< queue gained work / stopping
  std::condition_variable capacity_cv_; ///< a slot freed up
  std::condition_variable done_cv_;     ///< inflight hit zero
  std::deque<DecodedLine> queue_;
  std::vector<std::thread> threads_;    ///< spawned on first work line
  std::size_t inflight_ = 0;            ///< queued + running work lines
  bool stopping_ = false;
  std::atomic<bool> sink_failed_{false};
  /// Connection-lifetime token, ambient around every pipelined dispatch.
  const CancelToken conn_token_ = CancelToken::source();
};

/// Applies an armed fault rule to a decoded line, by its verb echo (""
/// for lines that name none, which only "*" rules match).  Returns true
/// when the request was CONSUMED by the fault (garbage written instead of
/// a response) — the caller must not dispatch it.  Crash never returns;
/// stall sleeps the calling (reader) thread, so heartbeats stop being
/// answered and the supervisor sees a wedged worker, then falls through
/// to normal dispatch.
bool apply_fault(FaultInjector* injector, const DecodedLine& line,
                 LineDispatcher& dispatcher) {
  if (!injector || !injector->armed()) return false;
  FaultAction action;
  if (!injector->should_fire(line.verb, &action)) return false;
  switch (action) {
    case FaultAction::Crash:
      std::_Exit(9);  // a hard crash: no unwinding, no flushing
    case FaultAction::Stall:
      std::this_thread::sleep_for(injector->stall_duration());
      return false;
    case FaultAction::Garbage:
      dispatcher.write_line(FaultInjector::garbage_line());
      return true;
  }
  return false;
}

}  // namespace

/// A client that closes its read end must surface as a failed stream
/// write on THIS loop, never as a process-wide SIGPIPE killing the
/// daemon.  Idempotent; called by every serve entry point.
void ignore_sigpipe();

int serve_ndjson(ServiceEndpoint& service, std::istream& in, std::ostream& out,
                 ServeOptions options, FaultInjector* injector) {
  ignore_sigpipe();
  LineDispatcher dispatcher(service, options.max_inflight,
                            [&out](const std::string& response) {
                              out << response << "\n" << std::flush;
                              return static_cast<bool>(out);
                            });
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    DecodedLine request = decode_line(line);
    if (apply_fault(injector, request, dispatcher)) continue;
    if (!dispatcher.dispatch(std::move(request))) break;  // downstream closed
    if (service.shutdown_requested()) break;
  }
  dispatcher.drain();  // in-flight responses land before we return
  return 0;
}

}  // namespace protest

// --- TCP front end (POSIX only) ---------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

namespace protest {

void ignore_sigpipe() {
  // A write to a closed pipe/socket then fails with EPIPE instead of
  // raising a process-killing signal.  Sends additionally pass
  // MSG_NOSIGNAL where available; this covers stdout-pipe serving and
  // platforms without the flag.
  std::signal(SIGPIPE, SIG_IGN);
}

namespace {

/// Sends the whole buffer, retrying on partial writes and EINTR.  A peer
/// that resets the connection must surface as a failed send on THIS
/// connection, never as a process-wide SIGPIPE killing the daemon —
/// hence MSG_NOSIGNAL (SO_NOSIGPIPE is set on the socket where that
/// flag doesn't exist).
bool write_all(int fd, std::string_view data) {
#ifdef MSG_NOSIGNAL
  constexpr int kSendFlags = MSG_NOSIGNAL;
#else
  constexpr int kSendFlags = 0;
#endif
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// True when the fd has readable data (or EOF) within `timeout_ms`.
bool wait_readable(int fd, int timeout_ms) {
  struct pollfd pfd = {fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

/// One client connection: NDJSON request lines in, response lines out.
/// Polls so the thread notices a shutdown triggered by another client.
/// With options.max_inflight > 0 the connection pipelines: work-verb
/// responses return out of order and reading stalls while every dispatch
/// slot is busy (see ServeOptions).
///
/// Disconnect handling: a mid-response disconnect (EPIPE/ECONNRESET on
/// write) or a hard reset on read logs-and-closes THIS connection only —
/// SIGPIPE is ignored process-wide, so the daemon survives — and cancels
/// the connection's in-flight pipelined work at its next checkpoint.
/// An orderly EOF instead drains: in-flight responses still complete
/// (the client may have half-closed and be reading).
void serve_connection(ServiceEndpoint& service, int fd,
                      const ServeOptions& options, std::ostream& log,
                      std::mutex& log_mu) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif
  LineDispatcher dispatcher(service, options.max_inflight,
                            [fd](const std::string& response) {
                              return write_all(fd, response + "\n");
                            });
  bool client_lost = false;
  std::string pending;
  char buf[4096];
  while (!service.shutdown_requested()) {
    if (!wait_readable(fd, 200)) continue;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {  // hard drop (reset): nobody will read our responses
      client_lost = true;
      break;
    }
    if (n == 0) break;  // orderly EOF: drain below
    pending.append(buf, static_cast<std::size_t>(n));
    bool io_ok = true;
    std::size_t start = 0;
    for (std::size_t nl;
         io_ok && (nl = pending.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string_view line(pending.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
      io_ok = dispatcher.dispatch(decode_line(line));
      if (service.shutdown_requested()) break;
    }
    pending.erase(0, start);
    if (!io_ok) {
      client_lost = true;
      break;
    }
  }
  if (client_lost) dispatcher.cancel_inflight();
  dispatcher.drain();  // flush (or release) in-flight responses
  if (client_lost) {
    const std::lock_guard<std::mutex> lock(log_mu);
    log << "protest serve: client disconnected mid-response; closing its "
           "connection\n"
        << std::flush;
  }
  ::close(fd);
}

}  // namespace

bool tcp_serve_supported() { return true; }

int serve_tcp(ServiceEndpoint& service, std::uint16_t port, std::ostream& log,
              std::atomic<std::uint16_t>* bound_port, ServeOptions options) {
  ignore_sigpipe();
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd);
    throw std::runtime_error("bind/listen 127.0.0.1:" + std::to_string(port) +
                             ": " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t actual_port = ntohs(addr.sin_port);
  if (bound_port) *bound_port = actual_port;
  log << "protest serve: listening on 127.0.0.1:" << actual_port << "\n"
      << std::flush;

  // One thread per live connection.  Finished threads are reaped on
  // every accept-loop pass (their `done` flag flips as the last thing the
  // connection does), so a long-lived daemon serving many short-lived
  // clients never accumulates exited-but-unjoined threads.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections;
  const auto reap = [&connections](bool all) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  std::mutex log_mu;  // connection threads share the log stream
  while (!service.shutdown_requested()) {
    reap(/*all=*/false);
    // Poll so the accept loop notices a shutdown handled on a connection
    // thread without needing a wake-up connection.
    if (!wait_readable(listen_fd, 200)) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    connections.push_back(
        {std::thread([&service, fd, done, options, &log, &log_mu] {
           serve_connection(service, fd, options, log, log_mu);
           done->store(true, std::memory_order_release);
         }),
         done});
  }
  ::close(listen_fd);
  reap(/*all=*/true);
  log << "protest serve: shut down\n" << std::flush;
  return 0;
}

}  // namespace protest

#else  // no POSIX sockets

namespace protest {

void ignore_sigpipe() {}  // no SIGPIPE to ignore

bool tcp_serve_supported() { return false; }

int serve_tcp(ServiceEndpoint&, std::uint16_t, std::ostream&,
              std::atomic<std::uint16_t>*, ServeOptions) {
  throw ServiceError("unsupported",
                     "TCP serving is not available on this platform; use "
                     "stdin/stdout NDJSON mode");
}

}  // namespace protest

#endif
