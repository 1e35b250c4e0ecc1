// Tests of the benchmark's own helpers: the tail-percentile rule, script
// determinism, span self-time arithmetic, the traced-vs-untraced byte
// check, and the pinned Table 1 fidelity of the committed references.
//
//   .bench_build/bin/perfbench_test [reference-dir]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "helpers.hpp"
#include "passes.hpp"
#include "protest/service.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(x) check((x), #x, __LINE__)

bool near(double a, double b, double tol) { return std::abs(a - b) <= tol; }

using namespace perfbench;

void tail_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Tail t = tail_latency(v, 90);
  // 100 samples: p90 is the 90th value, with ten above it.
  CHECK(t.value == 90.0);
  CHECK(t.samples_beyond == 10);
  CHECK(t.percentile == 90.0);
  CHECK(t.samples == 100);
  t = tail_latency(v, 99);
  CHECK(t.value == 99.0);
  CHECK(t.samples_beyond == 1);
  t = tail_latency(v, 100);  // the maximum
  CHECK(t.value == 100.0);
  CHECK(t.samples_beyond == 0);
  v.resize(99);  // rank ceil(89.1) = 90: nine above
  t = tail_latency(v, 90);
  CHECK(t.value == 90.0);
  CHECK(t.samples_beyond == 9);
  v.resize(40);
  t = tail_latency(v, 75);  // rank 30, ten above
  CHECK(t.value == 30.0);
  CHECK(t.samples_beyond == 10);
  CHECK(tail_latency({7}, 50).value == 7.0);
  CHECK(tail_latency({}, 50).samples == 0);
  // Order does not matter.
  std::vector<double> shuffled;
  for (int i = 40; i >= 1; --i) shuffled.push_back(i);
  CHECK(tail_latency(shuffled, 75).value == 30.0);
  CHECK(median({3, 1, 2}) == 2.0);
  CHECK(median({4, 1, 2, 3}) == 2.5);
}

std::vector<std::string> fleet_prefix(std::uint64_t seed, unsigned client) {
  FleetScript s(seed, client, {"a", "b"}, 14);
  std::vector<std::string> out;
  for (int i = 0; i < 200; ++i) out.push_back(s.next());
  return out;
}

void script_determinism() {
  CHECK(fleet_prefix(7, 0) == fleet_prefix(7, 0));
  CHECK(fleet_prefix(7, 0) != fleet_prefix(8, 0));
  CHECK(fleet_prefix(7, 0) != fleet_prefix(7, 1));
  // Different seeds draw different tuple pools.
  CHECK(FleetScript(7, 0, {"a"}, 14).pool() != FleetScript(8, 0, {"a"}, 14).pool());
  CHECK(FleetScript(7, 0, {"a"}, 14).pool() == FleetScript(7, 3, {"a"}, 14).pool());
  WhatIfScript a(5, "div", 32), b(5, "div", 32), c(6, "div", 32);
  const auto ra = a.next_round(), rb = b.next_round(), rc = c.next_round();
  CHECK(ra == rb);
  CHECK(ra.size() == 8);
  CHECK(ra[0] != rc[0]);
  // Every generated line decodes as a valid request.
  for (const auto& l : fleet_prefix(7, 2)) protest::ServiceRequest::from_json(l);
  for (const auto& l : ra) protest::ServiceRequest::from_json(l);
  // The mix: roughly 40% perturb over many draws.
  FleetScript m(11, 0, {"a"}, 14);
  int perturbs = 0;
  for (int i = 0; i < 10'000; ++i)
    perturbs += m.next().find("\"perturb\"") != std::string::npos;
  CHECK(perturbs > 3800 && perturbs < 4200);
}

void span_arithmetic() {
  // root [0,10] with children [1,3] and [2,6] (overlapping) and [8,12]
  // (clipped to the root): covered = [1,6] + [8,10] = 7, self = 3.
  std::vector<Span> s = {{"root", 0, 10, -1, 1},
                         {"a", 1, 3, 0, 1},
                         {"b", 2, 6, 0, 1},
                         {"c", 8, 12, 0, 1},
                         {"grandchild", 2, 3, 2, 1},
                         {"root2", 20, 30, -1, 2}};
  const std::vector<double> self = self_times(s);
  CHECK(near(self[0], 3.0, 1e-12));
  CHECK(near(self[1], 2.0, 1e-12));
  CHECK(near(self[2], 3.0, 1e-12));  // b minus its grandchild
  CHECK(near(self[3], 4.0, 1e-12));
  CHECK(near(self[5], 10.0, 1e-12));
  // Roots total 20 s, children explain 7 s of it.
  CHECK(near(coverage(s), 7.0 / 20.0, 1e-12));
  // A request that ran whole through handle_line explains nothing beyond
  // its decode, though its dispatch span fills it.
  const std::vector<Span> opaque = {{"request", 0, 10, -1, 1},
                                    {"service.decode", 0, 0.5, 0, 1},
                                    {std::string(kDispatchSpan), 0.5, 10, 0, 1}};
  CHECK(near(coverage(opaque), 0.05, 1e-12));
  CHECK(near(self_times(opaque)[0], 0.0, 1e-12));
  Tracer tr;
  const int r = tr.open("request", 1);
  const int c = tr.open("child", 1, r);
  tr.close(c);
  tr.close(r);
  CHECK(tr.spans()[1].parent == 0);
  CHECK(tr.spans()[0].end >= tr.spans()[1].end);
}

void byte_identity() {
  const std::vector<std::string> a = {"{\"id\":1,\"verb\":\"analyze\",\"ok\":true,\"result\":{}}",
                                      "xyz"};
  std::vector<Digest> da, db;
  for (const auto& s : a) da.push_back(digest(s)), db.push_back(digest(s));
  CHECK(first_mismatch(da, db) == -1);
  db[1] = digest("xyZ");
  CHECK(first_mismatch(da, db) == 1);
  db.pop_back();
  CHECK(first_mismatch(da, db) == 1);
  CHECK(response_ok(a[0]));
  CHECK(!response_ok("{\"id\":1,\"verb\":\"analyze\",\"ok\":false,\"error\":{}}"));
  CHECK(!response_ok("xyz"));

  // The traced side of a lockstep pass (layer calls, with handle_line for
  // the verbs the service assembles itself) answers every verb of the
  // fleet mix with the bytes the untraced side gets from an identically
  // loaded service.
  protest::ProtestService s1, s2;
  Run run;
  for (const char* name : {"alu0", "alu1"})
    for (auto* s : {&s1, &s2})
      call(*s, request_line("load_netlist", 1, name, "\"circuit\":\"alu\""),
           run);
  FleetScript script(3, 0, {"alu0", "alu1"}, 14);
  std::vector<std::string> lines(300);
  for (std::string& l : lines) l = script.next();
  lines.push_back(request_line("analyze", 9, "alu0", "\"p\":0.25"));
  lines.push_back(request_line(
      "perturb", 10, "alu1", "\"p\":0.5,\"input_index\":3,\"new_p\":0.75,\"screen\":true"));
  Tracer tr;
  const Lockstep ls = lockstep_pass(s1, s2, [&] { return lines; }, 0.0, tr, run);
  CHECK(run.failed == 0);
  CHECK(ls.untraced.ok == lines.size());
  CHECK(ls.traced.lat_ms.size() == lines.size());
  CHECK(first_mismatch(ls.untraced.digests, ls.traced.digests) == -1);
  std::size_t roots = 0, dispatched = 0, decomposed = 0, bounds = 0;
  for (const Span& sp : tr.spans()) {
    roots += sp.parent < 0;
    dispatched += sp.name == kDispatchSpan;
    decomposed += sp.name == "registry.open";
    bounds += sp.name == "lint.fault_bounds";
  }
  CHECK(roots == lines.size());
  CHECK(dispatched + decomposed == lines.size());
  CHECK(dispatched > 0 && decomposed > 0 && bounds > 0);
  // Only lint and stats run whole; on the ALU they are cheap.
  CHECK(coverage(tr.spans()) > 0.8);
  // A mismatch is caught: the same lines on a differently loaded service.
  protest::ProtestService s3, s4;
  call(s3, request_line("load_netlist", 1, "alu0", "\"circuit\":\"alu\""), run);
  call(s4, request_line("load_netlist", 1, "alu0", "\"circuit\":\"c17\""), run);
  Tracer tr2;
  const std::vector<std::string> one = {request_line("analyze", 2, "alu0")};
  const Lockstep differ = lockstep_pass(s3, s4, [&] { return one; }, 0.0, tr2, run);
  CHECK(first_mismatch(differ.untraced.digests, differ.traced.digests) == 0);
}

/// Table 1 values of the served estimate against the committed references
/// (mult, div) and live exhaustive simulation (alu), to four decimals.
void pinned_fidelity(const std::string& data_dir) {
  struct Pin {
    const char* circuit;
    double max, delta, c;
  };
  for (const Pin& pin : {Pin{"alu", 0.2793, 0.0631, 0.9343},
                         Pin{"mult", 0.5742, 0.1261, 0.8697},
                         Pin{"div", 0.4052, 0.0475, 0.8557}}) {
    protest::ProtestService svc;
    const std::string name = pin.circuit;
    svc.handle_line(request_line("load_netlist", 1, name,
                                 "\"circuit\":\"" + name + "\""));
    const auto session = svc.registry().open(name);
    const auto result =
        session->analyze(protest::uniform_input_probs(session->netlist(), 0.5));
    std::vector<double> ref;
    if (name == "alu") {
      ref = protest::simulate_faults(
                session->netlist(), session->faults(),
                protest::PatternSet::exhaustive(session->netlist().inputs().size()),
                protest::FaultSimMode::CountDetections)
                .detection_probs();
    } else {
      std::ifstream in(data_dir + "/" + name + ".json");
      std::stringstream ss;
      ss << in.rdbuf();
      const protest::JsonValue doc = protest::parse_json(ss.str());
      const double n = doc.at("patterns").as_number();
      CHECK(n == 100'000);
      CHECK(doc.at("pattern_seed").as_number() == 1985);
      for (const auto& c : doc.at("detect_counts").as_array())
        ref.push_back(c.as_number() / n);
    }
    const Fidelity f = fidelity(result.detection_probs(), ref);
    std::printf("%s: Max %.4f Delta %.4f C %.4f\n", pin.circuit, f.max_err,
                f.mean_err, f.corr);
    CHECK(near(f.max_err, pin.max, 5e-5));
    CHECK(near(f.mean_err, pin.delta, 5e-5));
    CHECK(near(f.corr, pin.c, 5e-5));
  }
}

}  // namespace

int main(int argc, char** argv) {
  tail_rule();
  script_determinism();
  span_arithmetic();
  byte_identity();
  pinned_fidelity(argc > 1 ? argv[1] : "perfbench/reference");
  std::printf("%s (%d failure(s))\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
