// Shared helpers for the table/figure reproduction harnesses.  Every bench
// binary prints the paper's published rows next to our measured ones; the
// goal is matching *shape* (who wins, rough factors, crossovers), not the
// authors' absolute 1985 numbers.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "optimize/hill_climb.hpp"
#include "protest/session.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pattern.hpp"
#include "testlen/test_length.hpp"

namespace protest::bench {

/// Wall-clock seconds of a callable.
template <typename F>
double time_seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

inline std::string fmt_testlen(std::uint64_t n) {
  return n == kInfiniteTestLength ? "inf" : fmt_int(n);
}

/// Detection probabilities restricted to estimated-detectable faults
/// (drops exact zeros: structurally unobservable/untestable faults, which
/// the paper's finite d=1.0 rows implicitly exclude).
inline std::vector<double> detectable(const std::vector<double>& pf) {
  std::vector<double> out;
  out.reserve(pf.size());
  for (double p : pf)
    if (p > 0.0) out.push_back(p);
  return out;
}

inline void print_header(const char* what) {
  std::printf("==================================================================\n");
  std::printf("PROTEST reproduction — %s\n", what);
  std::printf("==================================================================\n");
}

/// Machine-readable companion to the printed tables: collects flat
/// key -> number metrics and writes them as BENCH_<name>.json in the
/// working directory, so perf claims (e.g. the batching speedup) are
/// recorded per run and diffable across commits.  Keys are dot-joined
/// plain identifiers ("alu.protest.batch_seconds") — no escaping needed.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  std::string path() const { return "BENCH_" + name_ + ".json"; }

  /// Writes the file; returns false (and warns on stderr) on I/O failure.
  bool write() const {
    std::FILE* f = std::fopen(path().c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path().c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {\n",
                 name_.c_str());
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::fprintf(f, "    \"%s\": %.9g%s\n", metrics_[i].first.c_str(),
                   metrics_[i].second, i + 1 < metrics_.size() ? "," : "");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", path().c_str(), metrics_.size());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace protest::bench
