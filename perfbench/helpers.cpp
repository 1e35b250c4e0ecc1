#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/json.hpp"

namespace perfbench {

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Tail tail_latency(std::vector<double> samples, double percentile) {
  Tail t;
  t.samples = samples.size();
  t.percentile = percentile;
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(percentile * static_cast<double>(n) / 100.0)),
      1, n);
  t.value = samples[rank - 1];
  t.samples_beyond = n - rank;
  return t;
}

Fidelity fidelity(std::span<const double> est, std::span<const double> ref) {
  if (est.size() != ref.size() || est.empty())
    throw std::invalid_argument("fidelity: estimate/reference size mismatch");
  Fidelity f;
  const double n = static_cast<double>(est.size());
  double se = 0.0, sr = 0.0;
  for (std::size_t i = 0; i < est.size(); ++i) {
    const double d = std::abs(est[i] - ref[i]);
    f.max_err = std::max(f.max_err, d);
    f.mean_err += d;
    se += est[i];
    sr += ref[i];
  }
  f.mean_err /= n;
  const double me = se / n, mr = sr / n;
  double cov = 0.0, ve = 0.0, vr = 0.0;
  for (std::size_t i = 0; i < est.size(); ++i) {
    cov += (est[i] - me) * (ref[i] - mr);
    ve += (est[i] - me) * (est[i] - me);
    vr += (ref[i] - mr) * (ref[i] - mr);
  }
  f.corr = ve > 0.0 && vr > 0.0 ? cov / std::sqrt(ve * vr) : 0.0;
  return f;
}

// --- seeded inputs ------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (tag * 0xd1342543de82ef95ull));
  return r.next();
}

double grid_prob(Rng& rng) {
  return static_cast<double>(1 + rng.below(15)) / 16.0;
}

std::vector<double> grid_tuple(Rng& rng, std::size_t n) {
  std::vector<double> t(n);
  for (double& p : t) p = grid_prob(rng);
  return t;
}

double other_grid_prob(Rng& rng, double current) {
  for (;;) {
    const double p = grid_prob(rng);
    if (p != current) return p;
  }
}

std::string json_number_array(std::span<const double> values) {
  protest::JsonWriter w(0);
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
  return w.str();
}

std::string request_line(std::string_view verb, std::uint64_t id,
                         std::string_view netlist,
                         std::string_view extra_members) {
  std::string s = "{\"verb\":" + protest::JsonWriter::quote(verb) +
                  ",\"id\":" + std::to_string(id);
  if (!netlist.empty())
    s += ",\"netlist\":" + protest::JsonWriter::quote(netlist);
  if (!extra_members.empty()) {
    s += ',';
    s += extra_members;
  }
  s += '}';
  return s;
}

namespace {

std::string tuple_member(std::span<const double> t) {
  return "\"input_probs\":" + json_number_array(t);
}

std::string perturb_members(std::span<const double> t, std::size_t index,
                            double new_p, bool screen) {
  protest::JsonWriter w(0);
  w.value(new_p);
  return tuple_member(t) + ",\"input_index\":" + std::to_string(index) +
         ",\"new_p\":" + w.str() + (screen ? ",\"screen\":true" : "");
}

}  // namespace

FleetScript::FleetScript(std::uint64_t seed, unsigned client,
                         std::vector<std::string> names,
                         std::size_t num_inputs)
    : rng_(derive_seed(seed, 100 + client)),
      next_id_(1 + static_cast<std::uint64_t>(client) * 1'000'000'000ull),
      names_(std::move(names)) {
  // The tuple pool is shared by every client: it depends on the seed only.
  Rng pool_rng(derive_seed(seed, 1));
  for (int i = 0; i < 16; ++i) pool_.push_back(grid_tuple(pool_rng, num_inputs));
}

std::string FleetScript::next() {
  const std::string& name = names_[rng_.below(names_.size())];
  const std::vector<double>& t = pool_[rng_.below(pool_.size())];
  const std::uint64_t id = next_id_++;
  const std::uint64_t pick = rng_.below(10);
  if (pick < 4) {
    const std::size_t i = rng_.below(t.size());
    return request_line("perturb", id, name,
                        perturb_members(t, i, other_grid_prob(rng_, t[i]),
                                        false));
  }
  if (pick < 6) return request_line("analyze", id, name, tuple_member(t));
  if (pick < 7)
    return request_line("analyze", id, name,
                        tuple_member(t) + ",\"artifacts\":[\"signal_probs\"]");
  if (pick < 8) return request_line("fault_bounds", id, name, tuple_member(t));
  if (pick < 9) return request_line("lint", id, name);
  return request_line("stats", id, name);
}

WhatIfScript::WhatIfScript(std::uint64_t seed, std::string netlist,
                           std::size_t num_inputs)
    : rng_(derive_seed(seed, 2)),
      netlist_(std::move(netlist)),
      num_inputs_(num_inputs) {}

std::vector<std::string> WhatIfScript::next_round() {
  const std::vector<double> t = grid_tuple(rng_, num_inputs_);
  std::vector<std::string> out;
  out.push_back(request_line("analyze", next_id_++, netlist_, tuple_member(t)));
  for (int k = 0; k < 5; ++k) {
    const std::size_t i = rng_.below(num_inputs_);
    out.push_back(request_line(
        "perturb", next_id_++, netlist_,
        perturb_members(t, i, other_grid_prob(rng_, t[i]), k == 4)));
  }
  out.push_back(request_line("analyze", next_id_++, netlist_, tuple_member(t)));
  out.push_back(
      request_line("fault_bounds", next_id_++, netlist_, tuple_member(t)));
  return out;
}

// --- response checks ----------------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Digest digest(std::string_view bytes) { return {bytes.size(), fnv1a64(bytes)}; }

long first_mismatch(std::span<const Digest> a, std::span<const Digest> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    if (!(a[i] == b[i])) return static_cast<long>(i);
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

bool response_ok(std::string_view line) {
  // {"id":N,"verb":"...","ok":true — the verb never contains a quote.
  const std::size_t verb = line.find(",\"verb\":\"");
  if (line.substr(0, 6) != "{\"id\":" || verb == std::string_view::npos)
    return false;
  const std::size_t close = line.find('"', verb + 9);
  return close != std::string_view::npos &&
         line.substr(close, 11) == "\",\"ok\":true";
}

// --- spans --------------------------------------------------------------------

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::open(std::string name, std::uint64_t request, int parent) {
  spans_.push_back({std::move(name), now(), 0.0, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span) { spans_[static_cast<std::size_t>(span)].end = now(); }

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0, cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::vector<std::vector<std::pair<double, double>>> child_intervals(
    std::span<const Span> spans, bool layers_only) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && !(layers_only && s.name == kDispatchSpan))
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  return kids;
}

}  // namespace

std::vector<double> self_times(std::span<const Span> spans) {
  const auto kids = child_intervals(spans, false);
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[i] = (spans[i].end - spans[i].start) -
             covered(kids[i], spans[i].start, spans[i].end);
  return out;
}

double coverage(std::span<const Span> spans) {
  const auto kids = child_intervals(spans, true);
  double total = 0.0, explained = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    total += spans[i].end - spans[i].start;
    explained += covered(kids[i], spans[i].start, spans[i].end);
  }
  return total > 0.0 ? explained / total : 0.0;
}

}  // namespace perfbench
