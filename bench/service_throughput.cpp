// Requests/sec through the service layer: resident registry sessions vs
// a cold service per request, and serial vs pipelined dispatch.
//
// The workload is an interactive client loop on one netlist — an analyze
// of the base tuple followed by single-coordinate perturbs — sent as
// NDJSON lines through ProtestService::handle_line, i.e. the full daemon
// path (parse, dispatch, evaluate, serialize).  Resident mode keeps one
// service (and thus one hot session: cached plans, tuple cache,
// incremental perturbs); cold mode builds a fresh service and reloads the
// netlist for every request, the way a batch binary would.  Both modes
// must produce byte-identical analyze payloads (exit 1 otherwise).
//
// The pipelined section feeds the SAME conversation through serve_ndjson
// twice — serial dispatch (--inflight 0) and pipelined out-of-order
// dispatch (--inflight 4) — and records sync vs pipelined requests/sec.
// The response SETS must match byte for byte (exit 1 otherwise); only the
// order may differ.  With one hardware core the pipelined numbers mostly
// measure dispatch overhead — hardware_threads is recorded alongside.
//
// The supervised section drives the SAME interactive workload through
// `Supervisor` fleets of 1 and N worker processes (several registered
// netlists so rendezvous placement actually spreads the load, several
// client threads so the fleets see concurrent requests) and records
// requests/sec plus p50/p99 request latency for each fleet size.  It
// needs the CLI binary to spawn workers from: PROTEST_BIN, or ./protest
// next to the current directory; the section is skipped when neither
// resolves (metrics simply absent from the JSON).
//
// The serialization section times div's analyze payload
// (AnalysisResult::to_json(0), default artifacts already built) in a
// 1-worker session and in one at the default worker count, whose large
// arrays are written in chunks across its executor.  The two documents
// must be byte-identical (exit 1 otherwise).
//
// Emits BENCH_service_throughput.json.  Run with --quick for a CI smoke.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuits/zoo.hpp"
#include "protest/service.hpp"
#include "protest/supervisor.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace protest {
namespace {

bool g_parity_ok = true;

std::string load_line(const std::string& circuit) {
  ServiceRequest load;
  load.verb = ServiceVerb::LoadNetlist;
  load.netlist = circuit;
  load.circuit = circuit;
  return load.to_json(0);
}

/// The client loop: one base analyze, then perturbs cycling over inputs
/// and a few grid values (every perturb re-analyzes the base — a cache
/// hit on a resident session, a full evaluation on a cold one).
std::vector<std::string> request_script(const std::string& circuit,
                                        std::size_t num_inputs,
                                        std::size_t num_requests) {
  std::vector<std::string> lines;
  lines.reserve(num_requests);
  ServiceRequest analyze;
  analyze.verb = ServiceVerb::Analyze;
  analyze.netlist = circuit;
  analyze.id = 2;  // correlatable ids: the load line takes 1
  analyze.p = 0.5;
  lines.push_back(analyze.to_json(0));
  const double values[] = {0.25, 0.75, 0.125, 0.875};
  for (std::size_t i = 1; i < num_requests; ++i) {
    ServiceRequest perturb;
    perturb.verb = ServiceVerb::Perturb;
    perturb.netlist = circuit;
    perturb.id = i + 2;
    perturb.p = 0.5;
    perturb.input_index = i % num_inputs;
    perturb.new_p = values[i % (sizeof values / sizeof values[0])];
    lines.push_back(perturb.to_json(0));
  }
  return lines;
}

/// Runs every line through one resident service; returns the first
/// (analyze) response for the parity check.
std::string run_resident(const std::string& circuit,
                         std::span<const std::string> lines) {
  ProtestService service;
  service.handle_line(load_line(circuit));
  std::string first;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string resp = service.handle_line(lines[i]);
    if (i == 0) first = resp;
    if (resp.find("\"ok\":true") == std::string::npos) {
      std::printf("ERROR: request failed: %s\n", resp.c_str());
      g_parity_ok = false;
    }
  }
  return first;
}

/// One fresh service (and netlist load) per request — the no-registry
/// baseline.
std::string run_cold(const std::string& circuit,
                     std::span<const std::string> lines) {
  std::string first;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ProtestService service;
    service.handle_line(load_line(circuit));
    const std::string resp = service.handle_line(lines[i]);
    if (i == 0) first = resp;
  }
  return first;
}

/// Feeds the whole conversation (load + script) through serve_ndjson with
/// the given dispatch options; returns the response lines.
std::vector<std::string> run_serve(const std::string& circuit,
                                   std::span<const std::string> lines,
                                   ServeOptions options) {
  std::string conversation = load_line(circuit) + "\n";
  for (const std::string& line : lines) conversation += line + "\n";
  std::istringstream in(conversation);
  std::ostringstream out;
  ProtestService service;
  serve_ndjson(service, in, out, options);
  std::vector<std::string> responses;
  std::istringstream split(out.str());
  std::string response;
  while (std::getline(split, response)) responses.push_back(response);
  return responses;
}

/// Serial vs pipelined serve over the same conversation: records sync and
/// pipelined requests/sec and enforces response-set equality byte for
/// byte (order is the only permitted difference).
void run_pipelined(bench::BenchJson& json, const std::string& circuit,
                   std::span<const std::string> script) {
  constexpr std::size_t kInflight = 4;
  std::vector<std::string> serial, pipelined;
  const double t_serial = bench::time_seconds(
      [&] { serial = run_serve(circuit, script, ServeOptions{}); });
  const double t_pipelined = bench::time_seconds([&] {
    pipelined = run_serve(circuit, script, ServeOptions{kInflight});
  });
  const double requests = static_cast<double>(script.size()) + 1;  // + load
  const double sync_rps = requests / t_serial;
  const double pipe_rps = requests / t_pipelined;

  std::sort(serial.begin(), serial.end());
  std::sort(pipelined.begin(), pipelined.end());
  if (serial != pipelined) {
    std::printf("ERROR: pipelined response set differs from serial!\n");
    g_parity_ok = false;
  }

  TextTable t({"dispatch", "requests/sec", "ms/request"});
  t.add_row({"serial", fmt(sync_rps, 1), fmt(1000.0 * t_serial / requests, 3)});
  t.add_row({"pipelined(" + fmt_int(kInflight) + ")", fmt(pipe_rps, 1),
             fmt(1000.0 * t_pipelined / requests, 3)});
  std::printf("%s", t.str().c_str());
  std::printf("pipelined/serial speedup: %.2fx\n",
              sync_rps > 0.0 ? pipe_rps / sync_rps : 0.0);

  json.metric(circuit + ".sync.requests_per_sec", sync_rps);
  json.metric(circuit + ".pipelined.requests_per_sec", pipe_rps);
  json.metric(circuit + ".pipelined.inflight",
              static_cast<double>(kInflight));
  json.metric(circuit + ".pipelined.speedup",
              sync_rps > 0.0 ? pipe_rps / sync_rps : 0.0);
}

void run_circuit(bench::BenchJson& json, const std::string& circuit,
                 std::size_t resident_requests, std::size_t cold_requests) {
  const Netlist net = make_circuit(circuit);
  const std::vector<std::string> script =
      request_script(circuit, net.inputs().size(), resident_requests);
  const std::span<const std::string> cold_script(
      script.data(), std::min(cold_requests, script.size()));

  std::string resident_first, cold_first;
  const double t_resident =
      bench::time_seconds([&] { resident_first = run_resident(circuit, script); });
  const double t_cold =
      bench::time_seconds([&] { cold_first = run_cold(circuit, cold_script); });

  const double resident_rps =
      static_cast<double>(script.size()) / t_resident;
  const double cold_rps = static_cast<double>(cold_script.size()) / t_cold;

  std::printf("\n%s: %zu gates, %zu resident / %zu cold requests\n",
              circuit.c_str(), net.num_gates(), script.size(),
              cold_script.size());
  TextTable t({"mode", "requests/sec", "ms/request"});
  t.add_row({"resident", fmt(resident_rps, 1),
             fmt(1000.0 * t_resident / static_cast<double>(script.size()), 3)});
  t.add_row({"cold", fmt(cold_rps, 1),
             fmt(1000.0 * t_cold / static_cast<double>(cold_script.size()), 3)});
  std::printf("%s", t.str().c_str());
  std::printf("resident/cold speedup: %.2fx\n",
              cold_rps > 0.0 ? resident_rps / cold_rps : 0.0);

  if (resident_first != cold_first) {
    std::printf("ERROR: resident and cold analyze payloads differ!\n");
    g_parity_ok = false;
  }

  run_pipelined(json, circuit, script);

  json.metric(circuit + ".resident.requests", static_cast<double>(script.size()));
  json.metric(circuit + ".resident.requests_per_sec", resident_rps);
  json.metric(circuit + ".cold.requests", static_cast<double>(cold_script.size()));
  json.metric(circuit + ".cold.requests_per_sec", cold_rps);
  json.metric(circuit + ".speedup",
              cold_rps > 0.0 ? resident_rps / cold_rps : 0.0);
}

/// div's to_json(0) at 1 worker and at the default worker count: median
/// milliseconds of a few repeats on a result whose artifacts are built.
void run_serialization(bench::BenchJson& json) {
  const Netlist net = make_circuit("div");
  const InputProbs tuple = uniform_input_probs(net, 0.5);
  constexpr int kRepeats = 5;
  const auto time_to_json = [&](unsigned threads, std::string& doc) {
    SessionOptions opts;
    opts.parallel.num_threads = threads;
    AnalysisSession session(net, opts);
    const AnalysisResult result = session.analyze(tuple);
    doc = result.to_json(0);  // warm-up; at the default, starts the pool
    std::vector<double> ms;
    for (int r = 0; r < kRepeats; ++r)
      ms.push_back(1e3 *
                   bench::time_seconds([&] { doc = result.to_json(0); }));
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
  };
  std::string serial_doc, default_doc;
  const double serial_ms = time_to_json(1, serial_doc);
  const double default_ms = time_to_json(0, default_doc);
  const unsigned workers = ParallelConfig{}.resolved();
  std::printf("\ndiv to_json(0), %zu bytes, median of %d\n",
              serial_doc.size(), kRepeats);
  TextTable t({"workers", "ms"});
  t.add_row({"1", fmt(serial_ms, 2)});
  t.add_row({fmt_int(workers) + " (default)", fmt(default_ms, 2)});
  std::printf("%s", t.str().c_str());
  if (serial_doc != default_doc) {
    std::printf("ERROR: div to_json(0) differs between 1 and %u workers!\n",
                workers);
    g_parity_ok = false;
  }
  json.metric("div.to_json.workers1_ms", serial_ms);
  json.metric("div.to_json.default_ms", default_ms);
  json.metric("div.to_json.default_workers", static_cast<double>(workers));
  json.metric("div.to_json.bytes", static_cast<double>(serial_doc.size()));
}

/// The worker executable for the supervised section.  The bench binary
/// itself is NOT a valid worker (Supervisor's /proc/self/exe fallback
/// would spawn benches recursively), so only explicit paths qualify.
std::string find_worker_binary() {
  if (const char* bin = std::getenv("PROTEST_BIN"); bin && *bin) return bin;
#if defined(__unix__) || defined(__APPLE__)
  if (::access("./protest", X_OK) == 0) return "./protest";
#endif
  return "";
}

/// Drives `total` requests through the supervisor from `clients` threads
/// (round-robin over the registered names) and reports throughput and
/// latency quantiles.
struct FleetResult {
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

FleetResult drive_fleet(Supervisor& sup, const std::vector<std::string>& names,
                        std::size_t clients, std::size_t per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      const double values[] = {0.25, 0.75, 0.125, 0.875};
      for (std::size_t i = 0; i < per_client; ++i) {
        ServiceRequest req;
        req.verb = ServiceVerb::Perturb;
        req.netlist = names[(c + i) % names.size()];
        req.id = c * per_client + i + 100;
        req.p = 0.5;
        req.input_index = i % 4;
        req.new_p = values[(c + i) % (sizeof values / sizeof values[0])];
        const auto r0 = std::chrono::steady_clock::now();
        const std::string resp = sup.handle_line(req.to_json(0));
        const auto r1 = std::chrono::steady_clock::now();
        if (resp.find("\"ok\":true") == std::string::npos) {
          std::printf("ERROR: supervised request failed: %s\n", resp.c_str());
          g_parity_ok = false;
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(r1 - r0).count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  FleetResult res;
  res.rps = elapsed > 0.0 ? static_cast<double>(all.size()) / elapsed : 0.0;
  if (!all.empty()) {
    res.p50_ms = all[all.size() / 2];
    res.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return res;
}

void run_supervised(bench::BenchJson& json, bool quick) {
  if (!supervisor_supported()) {
    std::printf("\nsupervised: unsupported on this platform, skipping\n");
    return;
  }
  const std::string binary = find_worker_binary();
  if (binary.empty()) {
    std::printf(
        "\nsupervised: no worker binary (set PROTEST_BIN or run next to "
        "./protest), skipping\n");
    return;
  }
  const unsigned fleet = std::max(2u, std::min(4u, ParallelConfig{}.resolved()));
  const std::size_t clients = 4;
  const std::size_t per_client = quick ? 25 : 100;
  // Several names of the same circuit: identical work per request, but
  // rendezvous placement spreads them across the fleet.
  std::vector<std::string> names;
  for (int i = 0; i < 4; ++i) names.push_back("alu" + std::to_string(i));

  std::printf("\nsupervised serve: 1 vs %u workers, %zu clients x %zu "
              "requests\n",
              fleet, clients, per_client);
  TextTable t({"fleet", "requests/sec", "p50 ms", "p99 ms"});
  std::vector<std::pair<unsigned, FleetResult>> rows;
  for (const unsigned workers : {1u, fleet}) {
    SupervisorOptions opts;
    opts.workers = workers;
    opts.worker_binary = binary;
    std::ostringstream log;
    Supervisor sup(opts, log);
    for (std::size_t i = 0; i < names.size(); ++i) {
      ServiceRequest load;
      load.verb = ServiceVerb::LoadNetlist;
      load.id = i + 1;
      load.netlist = names[i];
      load.circuit = "alu";
      const std::string resp = sup.handle_line(load.to_json(0));
      if (resp.find("\"ok\":true") == std::string::npos) {
        std::printf("ERROR: supervised load failed: %s\n", resp.c_str());
        g_parity_ok = false;
        return;
      }
    }
    const FleetResult res = drive_fleet(sup, names, clients, per_client);
    ServiceRequest bye;
    bye.verb = ServiceVerb::Shutdown;
    bye.id = 999999;
    sup.handle_line(bye.to_json(0));
    rows.emplace_back(workers, res);
    t.add_row({fmt_int(workers) + (workers == 1 ? " worker" : " workers"),
               fmt(res.rps, 1), fmt(res.p50_ms, 3), fmt(res.p99_ms, 3)});
    const std::string key =
        "supervised.workers" + std::to_string(workers);
    json.metric(key + ".requests_per_sec", res.rps);
    json.metric(key + ".p50_ms", res.p50_ms);
    json.metric(key + ".p99_ms", res.p99_ms);
  }
  std::printf("%s", t.str().c_str());
  if (rows.size() == 2 && rows[0].second.rps > 0.0) {
    const double speedup = rows[1].second.rps / rows[0].second.rps;
    std::printf("multi-worker speedup: %.2fx\n", speedup);
    json.metric("supervised.speedup", speedup);
  }
}

}  // namespace
}  // namespace protest

int main(int argc, char** argv) {
  using namespace protest;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::print_header("service throughput (resident registry vs cold)");
  const unsigned hw = ParallelConfig{}.resolved();
  std::printf("hardware threads: %u\n", hw);
  bench::BenchJson json("service_throughput");
  json.metric("hardware_threads", static_cast<double>(hw));
  if (quick) {
    run_circuit(json, "alu", 20, 4);
  } else {
    run_circuit(json, "alu", 400, 40);
    run_circuit(json, "div", 120, 12);
  }
  run_serialization(json);
  run_supervised(json, quick);
  json.write();
  return g_parity_ok ? 0 : 1;
}
