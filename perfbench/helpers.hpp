// Pure helpers of the repository benchmark: latency statistics, the seeded
// request scripts, span bookkeeping for the traced pass, response digests
// and the Table 1 fidelity statistics.  Everything here is deterministic
// and free of I/O, so perfbench_test can pin it.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v);
double mean(std::span<const double> v);

/// The tail of a latency sample at a fixed percentile q (nearest rank: the
/// sorted value at index ceil(q * n / 100) - 1, so n - ceil(q * n / 100)
/// samples lie beyond it; q = 100 is the maximum).  Each workload fixes q
/// as the highest of p50/p75/p90/p95/p99 that leaves at least ten samples
/// beyond it at the workload's usual sample count.  A percentile picked
/// per run from the count would jump between rungs as the count drifts
/// with machine speed.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples_beyond = 0;
  std::size_t samples = 0;
};
Tail tail_latency(std::vector<double> samples, double percentile);

/// Table 1 columns for estimate vs. reference: Max |e - r|, the mean
/// |e - r| (Delta) and Pearson's C.
struct Fidelity {
  double max_err = 0.0;
  double mean_err = 0.0;
  double corr = 0.0;
};
Fidelity fidelity(std::span<const double> est, std::span<const double> ref);

// --- seeded inputs ------------------------------------------------------------

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// generated input on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Derives an independent stream seed from the workload seed and a tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// A probability on the k/16 grid the paper's optimizer uses, k in [1, 15].
double grid_prob(Rng& rng);
/// `n` grid probabilities.
std::vector<double> grid_tuple(Rng& rng, std::size_t n);
/// A grid probability different from `current`.
double other_grid_prob(Rng& rng, double current);

/// One NDJSON request line, built from members already encoded as JSON
/// values: {"verb":V,"id":I,"netlist":N, extra...}.
std::string request_line(std::string_view verb, std::uint64_t id,
                         std::string_view netlist,
                         std::string_view extra_members = {});
std::string json_number_array(std::span<const double> values);

/// The alu request mix of one client (alu_mix and its fleet probe; see
/// perfbench/README.md):
/// 40% exact perturb of a pooled tuple, 20% analyze of a pooled tuple,
/// 10% signal-probability-only analyze, 10% fault_bounds, 10% lint,
/// 10% named stats, each against one of the fleet's registrations.
class FleetScript {
 public:
  FleetScript(std::uint64_t seed, unsigned client,
              std::vector<std::string> names, std::size_t num_inputs);
  std::string next();
  const std::vector<std::vector<double>>& pool() const { return pool_; }

 private:
  Rng rng_;
  std::uint64_t next_id_;
  std::vector<std::string> names_;
  std::vector<std::vector<double>> pool_;
};

/// One div_whatif round on a fresh seeded tuple: analyze, 4 exact perturbs,
/// 1 screening perturb, a repeat analyze (cache hit) and fault_bounds.
class WhatIfScript {
 public:
  WhatIfScript(std::uint64_t seed, std::string netlist, std::size_t num_inputs);
  std::vector<std::string> next_round();

 private:
  Rng rng_;
  std::uint64_t next_id_ = 1;
  std::string netlist_;
  std::size_t num_inputs_;
};

// --- response checks ----------------------------------------------------------

/// FNV-1a over the bytes: responses are compared by (size, digest) so the
/// multi-megabyte ones need not be kept.
std::uint64_t fnv1a64(std::string_view bytes);

struct Digest {
  std::size_t size = 0;
  std::uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};
Digest digest(std::string_view bytes);

/// Index of the first position where two passes' response digests differ
/// (a length mismatch counts at the shorter length), or -1 when they agree.
long first_mismatch(std::span<const Digest> a, std::span<const Digest> b);

/// True when a compact response line reports ok:true (the service writes
/// id, verb and ok first, so the head decides).
bool response_ok(std::string_view line);

// --- spans --------------------------------------------------------------------

/// One timed call into a layer.  Times are seconds since the tracer's
/// origin; parent is an index into the same vector (-1 for a request's
/// root span).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Collects spans in memory; written out when the benchmark ends.
class Tracer {
 public:
  Tracer();
  int open(std::string name, std::uint64_t request, int parent = -1);
  void close(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The span of a request that runs whole through handle_line because the
/// service assembles its payload itself.  It names no layer, so its time
/// counts as unexplained.
inline constexpr std::string_view kDispatchSpan = "service.dispatch";

/// Per span: its duration minus the part of it covered by its direct
/// children (overlapping children are merged, parts outside are clipped).
std::vector<double> self_times(std::span<const Span> spans);

/// Share of the root spans' total duration covered by their layer
/// children: every child except kDispatchSpan.
double coverage(std::span<const Span> spans);

}  // namespace perfbench
