// The request passes of the benchmark: the result accumulator, the timed
// closed loop, and the lockstep pass that runs each request both untraced
// and as the service's layer calls.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/json.hpp"
#include "helpers.hpp"
#include "protest/service.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run attempted, what failed and why, and what it measured.
struct Run {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  /// Extra facts recorded beside the metrics (JSON-encoded values).
  std::vector<std::pair<std::string, std::string>> details;

  void fail(std::string why);
  void metric(std::string name, double value, std::string unit);
  void detail(std::string key, std::string json);
  /// Adds another client's counts and failure reasons.
  void merge(Run&& other);
};

/// A number in the service's JSON spelling.
std::string number(double v);

/// Sends one request, counts it, and checks that it came back ok.
std::string call(protest::ServiceEndpoint& ep, const std::string& line,
                 Run& run);

/// The `result` payload of a compact ok response.
std::string_view payload_of(std::string_view resp);
protest::JsonValue parse_payload(std::string_view resp);

/// One pass over a request stream: latencies and response digests.
struct Pass {
  std::vector<std::string> verbs;  ///< per request, for the by-verb detail
  std::vector<double> lat_ms;
  std::vector<Digest> digests;
  std::size_t ok = 0;
  double wall_s = 0.0;  ///< a timed pass's wall time
};

using Batch = std::function<std::vector<std::string>()>;
using Observer =
    std::function<void(const std::string& line, const std::string& resp)>;

/// Closed loop, one client: sends each request of the next batch after the
/// previous reply, until `seconds` have passed at a batch boundary.
Pass timed_pass(protest::ServiceEndpoint& ep, const Batch& next,
                double seconds, Run& run, const Observer& observe = {});

/// An untraced and a traced pass over the same requests, in lockstep.
/// Each request runs on `plain` through handle_line and on `traced` as the
/// layer calls the service makes: decode, registry open, the session call,
/// artifact accessors, serialization, then the response envelope.  Verbs
/// whose payload the service assembles itself run whole through
/// handle_line in one kDispatchSpan.  Which side goes first alternates per
/// request, so both sides see the same machine speed.  Batches run until
/// `seconds` have passed at a batch boundary, and at least one runs.  The
/// two services must be prepared identically; their response digests must
/// then agree.  `observe` sees the untraced responses.
struct Lockstep {
  Pass untraced;
  Pass traced;
};
Lockstep lockstep_pass(protest::ProtestService& plain,
                       protest::ProtestService& traced, const Batch& next,
                       double seconds, Tracer& tr, Run& run,
                       const Observer& observe = {});

}  // namespace perfbench
