#include "protest/session.hpp"

#include <algorithm>
#include <atomic>
#include <list>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "analysis/json.hpp"
#include "observe/detect.hpp"
#include "prob/protest_estimator.hpp"
#include "sim/pattern.hpp"
#include "testlen/test_length.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

std::vector<Fault> make_fault_list(const Netlist& net, FaultUniverse u) {
  switch (u) {
    case FaultUniverse::Structural: return structural_fault_list(net);
    case FaultUniverse::Full: return full_fault_list(net);
    case FaultUniverse::Collapsed: return collapsed_fault_list(net);
  }
  return structural_fault_list(net);
}

std::shared_ptr<const SignalProbEngine> make_session_engine(
    const Netlist& net, const SessionOptions& opts) {
  EngineConfig cfg;
  cfg.protest = opts.estimator;
  cfg.monte_carlo = opts.monte_carlo;
  cfg.monte_carlo.parallel = opts.parallel;
  cfg.bdd_node_limit = opts.bdd_node_limit;
  return make_engine(opts.engine, net, cfg);
}

/// Resolves the executor once and hands it to both the engine and the
/// session: a Monte-Carlo engine given only the thread count would start a
/// second pool beside the session's.
AnalysisSession make_session(const Netlist& net, SessionOptions opts) {
  opts.parallel.executor = make_executor(opts.parallel);
  std::shared_ptr<const SignalProbEngine> engine =
      make_session_engine(net, opts);
  std::vector<Fault> faults = make_fault_list(net, opts.universe);
  return AnalysisSession(net, std::move(engine), std::move(faults),
                         std::move(opts));
}

}  // namespace

void SessionStats::write(JsonWriter& w) const {
  w.begin_object();
  w.key("analyze_calls").value(analyze_calls);
  w.key("cache_hits").value(cache_hits);
  w.key("cache_misses").value(cache_misses());
  w.key("incremental_evals").value(incremental_evals);
  w.key("screen_evals").value(screen_evals);
  w.key("full_evals").value(full_evals);
  w.key("resident_results").value(resident_results);
  w.key("resident_bytes").value(resident_bytes);
  w.key("lint").begin_object();
  w.key("runs").value(lint_runs);
  w.key("errors").value(lint_errors);
  w.key("warnings").value(lint_warnings);
  w.key("infos").value(lint_infos);
  w.end_object();
  w.end_object();
}

std::string SessionStats::to_json(int indent) const {
  JsonWriter w(indent);
  write(w);
  return w.str();
}

AnalysisRequest AnalysisRequest::minimal() {
  AnalysisRequest r;
  r.observability = false;
  r.detection_probs = false;
  return r;
}

AnalysisRequest AnalysisRequest::everything() {
  AnalysisRequest r;
  r.test_lengths = true;
  r.scoap = true;
  r.stafan = true;
  r.fault_bounds = true;
  return r;
}

namespace {

constexpr ArtifactName kArtifactNames[] = {
    {"observability", &AnalysisRequest::observability},
    {"detection_probs", &AnalysisRequest::detection_probs},
    {"test_lengths", &AnalysisRequest::test_lengths},
    {"scoap", &AnalysisRequest::scoap},
    {"stafan", &AnalysisRequest::stafan},
    {"fault_bounds", &AnalysisRequest::fault_bounds},
};

}  // namespace

std::span<const ArtifactName> artifact_name_table() { return kArtifactNames; }

bool set_artifact(AnalysisRequest& req, std::string_view name) {
  if (name == "signal_probs") return true;  // always computed
  for (const ArtifactName& a : kArtifactNames)
    if (name == a.name) {
      req.*a.flag = true;
      return true;
    }
  return false;
}

std::string known_artifact_names() {
  std::string names = "signal_probs";
  for (const ArtifactName& a : kArtifactNames) {
    names += ' ';
    names += a.name;
  }
  return names;
}

// --- shared session state ---------------------------------------------------

/// Everything a result needs to compute artifacts after the query
/// returned: held by shared_ptr so results stay usable independent of the
/// session's cache (and of the session itself).
struct detail::SessionShared {
  SessionShared(const Netlist& n, SessionOptions o,
                std::shared_ptr<const SignalProbEngine> e,
                std::vector<Fault> f)
      : net(n),
        opts(std::move(o)),
        engine(std::move(e)),
        faults(std::move(f)),
        exec(make_executor(opts.parallel)) {}

  const Netlist& net;
  SessionOptions opts;
  std::shared_ptr<const SignalProbEngine> engine;
  std::vector<Fault> faults;
  /// Runs perturb_screen_sweep's fan-out and the fault_bounds sweep: the
  /// injected shared executor, or a private one whose pool starts on the
  /// first parallel job.
  std::shared_ptr<Executor> exec;
  std::mutex scoap_mu;  ///< guards the lazy init below
  std::optional<ScoapMeasures> scoap;  ///< input-independent, session-wide
  /// The fault analyzer's tuple-independent lattices, built by the first
  /// fault_bounds() of any result and shared by every later tuple.
  std::once_flag fault_ctx_once;
  std::unique_ptr<const FaultContext> fault_ctx;
};

struct AnalysisResult::State {
  std::shared_ptr<detail::SessionShared> shared;
  std::vector<double> input_probs;
  /// The signal probabilities and the engine's selection behind them
  /// (null for screens and for engines that select nothing).
  Evaluation eval;
  /// false for perturb_screen() products (screening numbers); screened
  /// results never enter the cache and cannot seed perturbs.
  bool exact_fidelity = true;
  /// The views block of the live handles of this tuple, if any.  Read and
  /// written under the session mutex (attach_views).
  std::weak_ptr<Views> views;
  /// Guards the memos below: results are shared across copies (and the
  /// session cache), so concurrent accessors memoize exactly once.
  /// Lock order: fault_bounds() holds mu through the fault-context
  /// call_once and then the executor's job lock while its sweep fans out;
  /// no other lock is taken under mu, and mu is never taken under
  /// Views::mu or the session mutex.  That cannot deadlock: the context
  /// build takes no lock, and no executor task takes the session mutex or
  /// the mu of a result another thread can reach — a screening task locks
  /// only the fresh result it is building, and its nested fault sweep
  /// runs inline under the executor's reentrancy guard.
  std::mutex mu;
  // Memos that cost a simulation or a sweep to rebuild (under mu).
  std::optional<StafanMeasures> stafan;
  std::optional<FaultAnalysis> fault_bounds;
  /// Element bytes of the memos above, added as each is set, so stats()
  /// reads them without waiting for mu.
  std::atomic<std::size_t> memo_bytes{0};
};

/// The observability and detection probabilities of one tuple: one linear
/// backward pass from the evaluation, so the handles own them and the
/// cache does not.  Its own mutex, so reading a view never waits behind a
/// fault-bounds sweep holding State::mu; no other lock is taken under it.
struct AnalysisResult::Views {
  std::mutex mu;
  std::optional<Observability> observability;
  std::optional<std::vector<double>> detection_probs;
};

// --- AnalysisResult ---------------------------------------------------------

AnalysisResult::AnalysisResult(std::shared_ptr<State> state,
                               std::shared_ptr<Views> views,
                               AnalysisRequest request)
    : state_(std::move(state)),
      views_(std::move(views)),
      request_(std::move(request)) {}

namespace {

AnalysisResult::State& checked(
    const std::shared_ptr<AnalysisResult::State>& state) {
  if (!state)
    throw std::logic_error("AnalysisResult: empty handle (default-"
                           "constructed or moved-from)");
  return *state;
}

/// Lazy-init helper for the view accessors below; the caller holds v.mu.
/// Once materialized, the optionals are never reset, so references handed
/// out stay valid after the lock is released.
const Observability& ensure_observability(const AnalysisResult::State& s,
                                          AnalysisResult::Views& v) {
  if (!v.observability)
    v.observability = compute_observability(s.shared->net, s.eval.probs,
                                            s.shared->opts.observability);
  return *v.observability;
}

std::size_t element_bytes(const std::vector<double>& v) {
  return v.size() * sizeof(double);
}

std::size_t element_bytes(const std::vector<std::vector<double>>& vs) {
  std::size_t bytes = 0;
  for (const std::vector<double>& v : vs) bytes += element_bytes(v);
  return bytes;
}

std::size_t element_bytes(const Selection& sel) {
  return sel.gates() * (1 + sel.width()) * sizeof(std::uint32_t);
}

std::size_t element_bytes(const StafanMeasures& m) {
  return element_bytes(m.c1) + element_bytes(m.pin_sens) +
         element_bytes(m.obs) + element_bytes(m.pin_obs);
}

std::size_t element_bytes(const FaultAnalysis& fa) {
  return fa.bounds.size() * sizeof(FaultBound);
}

/// What the cache keeps of one state: the tuple, the evaluation and the
/// memos set so far.  Reads only fields fixed before the state was cached
/// and the atomic memo count, so no lock is needed.
std::size_t cached_bytes(const AnalysisResult::State& s) {
  return element_bytes(s.input_probs) + element_bytes(s.eval.probs) +
         (s.eval.selection ? element_bytes(*s.eval.selection) : 0) +
         s.memo_bytes.load(std::memory_order_relaxed);
}

/// The views of the live handles of a cached `state`, or a new empty block
/// that later hits re-attach to.  Caller holds the session mutex.
std::shared_ptr<AnalysisResult::Views> attach_views(
    AnalysisResult::State& state) {
  std::shared_ptr<AnalysisResult::Views> views = state.views.lock();
  if (!views) {
    views = std::make_shared<AnalysisResult::Views>();
    state.views = views;
  }
  return views;
}

}  // namespace

const Netlist& AnalysisResult::netlist() const {
  return checked(state_).shared->net;
}

std::string_view AnalysisResult::engine() const {
  return checked(state_).shared->engine->name();
}

const std::vector<Fault>& AnalysisResult::faults() const {
  return checked(state_).shared->faults;
}

const std::vector<double>& AnalysisResult::input_probs() const {
  return checked(state_).input_probs;
}

const std::vector<double>& AnalysisResult::signal_probs() const {
  return checked(state_).eval.probs;
}

const Observability& AnalysisResult::observability() const {
  const State& s = checked(state_);
  const std::lock_guard<std::mutex> lock(views_->mu);
  return ensure_observability(s, *views_);
}

const std::vector<double>& AnalysisResult::detection_probs() const {
  const State& s = checked(state_);
  Views& v = *views_;
  const std::lock_guard<std::mutex> lock(v.mu);
  if (!v.detection_probs)
    v.detection_probs =
        protest::detection_probs(s.shared->net, s.shared->faults,
                                 s.eval.probs, ensure_observability(s, v));
  return *v.detection_probs;
}

const ScoapMeasures& AnalysisResult::scoap() const {
  State& s = checked(state_);
  const std::lock_guard<std::mutex> lock(s.shared->scoap_mu);
  if (!s.shared->scoap) s.shared->scoap = compute_scoap(s.shared->net);
  return *s.shared->scoap;
}

const StafanMeasures& AnalysisResult::stafan() const {
  State& s = checked(state_);
  const std::lock_guard<std::mutex> lock(s.mu);
  if (!s.stafan) {
    s.stafan = compute_stafan(
        s.shared->net,
        PatternSet::weighted(s.input_probs, s.shared->opts.stafan_patterns,
                             s.shared->opts.stafan_seed));
    s.memo_bytes += element_bytes(*s.stafan);
  }
  return *s.stafan;
}

const FaultAnalysis& AnalysisResult::fault_bounds() const {
  State& s = checked(state_);
  const std::lock_guard<std::mutex> lock(s.mu);
  if (!s.fault_bounds) {
    detail::SessionShared& sh = *s.shared;
    std::call_once(sh.fault_ctx_once, [&] {
      sh.fault_ctx = std::make_unique<const FaultContext>(sh.net);
    });
    FaultAnalyzeOptions fo;
    fo.input_probs = s.input_probs;
    // A cancelled sweep throws out of here, leaving nothing memoized.
    s.fault_bounds =
        analyze_faults(*sh.fault_ctx, sh.faults, fo, sh.exec.get());
    s.memo_bytes += element_bytes(*s.fault_bounds);
  }
  return *s.fault_bounds;
}

std::uint64_t AnalysisResult::test_length(double d, double e) const {
  return required_test_length(detection_probs(), d, e);
}

void write_fault_bounds(JsonWriter& w, const Netlist& net,
                        std::span<const Fault> faults, const FaultAnalysis& fa,
                        std::size_t limit, Executor* exec) {
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
  const std::size_t shown = std::min(fa.bounds.size(), limit);
  w.key("faults").begin_array();
  w.elements(shown, exec, [&](JsonWriter& e, std::size_t f) {
    const FaultBound& b = fa.bounds[f];
    e.begin_object();
    e.key("fault").value(to_string(net, faults[f]));
    e.key("lo").value(b.lo);
    e.key("hi").value(b.hi);
    e.key("verdict").value(to_string(b.verdict));
    if (b.cause != UndetectableCause::None)
      e.key("cause").value(to_string(b.cause));
    if (b.truncated) e.key("truncated").value(true);
    e.end_object();
  });
  w.end_array();
  if (shown < fa.bounds.size()) w.key("faults_truncated").value(true);
}

std::string AnalysisResult::to_json(int indent) const {
  State& s = checked(state_);
  const Netlist& net = s.shared->net;
  JsonWriter w(indent);
  w.begin_object();
  w.key("engine").value(engine());

  w.key("circuit").begin_object();
  w.key("inputs").value(net.inputs().size());
  w.key("outputs").value(net.outputs().size());
  w.key("gates").value(net.num_gates());
  w.key("nodes").value(net.size());
  w.key("faults").value(s.shared->faults.size());
  w.end_object();

  w.key("input_probs").begin_array();
  const auto inputs = net.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    w.begin_object();
    w.key("input").value(net.name_of(inputs[i]));
    w.key("p").value(s.input_probs[i]);
    w.end_object();
  }
  w.end_array();

  // Each artifact is read once, outside the loops that serialize it, so
  // the node- and fault-sized arrays below can be written in chunks across
  // the session's executor: every chunk only reads fixed data.
  const Observability* obs =
      request_.observability ? &observability() : nullptr;
  const FaultAnalysis* fa = request_.fault_bounds ? &fault_bounds() : nullptr;
  const std::vector<double>* pf =
      request_.detection_probs || request_.test_lengths ? &detection_probs()
                                                        : nullptr;
  const std::vector<Fault>& faults = s.shared->faults;
  Executor* exec = s.shared->exec.get();

  w.key("signal_probs").begin_array();
  w.elements(net.size(), exec, [&](JsonWriter& e, NodeId n) {
    if (net.is_input(n)) return;
    e.begin_object();
    e.key("node").value(net.name_of(n));
    e.key("p1").value(s.eval.probs[n]);
    if (obs) e.key("observability").value(obs->stem[n]);
    e.end_object();
  });
  w.end_array();

  if (request_.detection_probs) {
    w.key("detection_probs").begin_array();
    w.elements(faults.size(), exec, [&](JsonWriter& e, std::size_t f) {
      double v = (*pf)[f];
      if (fa) {
        // The estimator is a heuristic, the static interval a guarantee:
        // where they disagree, the interval wins.
        const FaultBound& b = fa->bounds[f];
        v = b.verdict == FaultClass::ProvenUndetectable
                ? 0.0
                : std::clamp(v, b.lo, b.hi);
      }
      e.begin_object();
      e.key("fault").value(to_string(net, faults[f]));
      e.key("p_detect").value(v);
      e.end_object();
    });
    w.end_array();
  }

  if (fa) {
    w.key("fault_bounds").begin_object();
    write_fault_bounds(w, net, faults, *fa, fa->bounds.size(), exec);
    w.end_object();
  }

  if (request_.test_lengths) {
    w.key("test_lengths").begin_array();
    for (double d : request_.d_grid)
      for (double e : request_.e_grid) {
        w.begin_object();
        w.key("d").value(d);
        w.key("e").value(e);
        const std::uint64_t n = required_test_length(*pf, d, e);
        if (n == kInfiniteTestLength)
          w.key("n").null();
        else
          w.key("n").value(n);
        w.end_object();
      }
    w.end_array();
  }

  if (request_.scoap) {
    const ScoapMeasures& m = scoap();
    w.key("scoap").begin_array();
    w.elements(net.size(), exec, [&](JsonWriter& e, NodeId n) {
      if (net.is_input(n)) return;
      e.begin_object();
      e.key("node").value(net.name_of(n));
      e.key("cc0").value(static_cast<std::uint64_t>(m.cc0[n]));
      e.key("cc1").value(static_cast<std::uint64_t>(m.cc1[n]));
      e.key("co").value(static_cast<std::uint64_t>(m.co[n]));
      e.end_object();
    });
    w.end_array();
  }

  if (request_.stafan) {
    const StafanMeasures& m = stafan();
    w.key("stafan").begin_array();
    w.elements(net.size(), exec, [&](JsonWriter& e, NodeId n) {
      if (net.is_input(n)) return;
      e.begin_object();
      e.key("node").value(net.name_of(n));
      e.key("c1").value(m.c1[n]);
      e.key("observability").value(m.obs[n]);
      e.end_object();
    });
    w.end_array();
  }

  w.end_object();
  return w.str();
}

// --- the result cache -------------------------------------------------------

/// LRU over evaluated tuples.  Entries share their State with every
/// AnalysisResult handed out, so eviction only drops the cache's
/// reference — outstanding results stay valid.  The index keys view each
/// state's own tuple, so the cache stores every tuple once.
class AnalysisSession::ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  std::shared_ptr<AnalysisResult::State> find(std::span<const double> key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return entries_.front();
  }

  /// Most-recently-used cached tuple differing from `key` in exactly one
  /// coordinate; returns the state and the differing index.
  std::pair<std::shared_ptr<AnalysisResult::State>, std::size_t> find_near(
      std::span<const double> key) const {
    for (const auto& state : entries_) {
      const std::vector<double>& probs = state->input_probs;
      if (probs.size() != key.size()) continue;
      std::size_t diffs = 0, idx = 0;
      for (std::size_t i = 0; i < key.size() && diffs <= 1; ++i) {
        if (probs[i] != key[i]) {
          ++diffs;
          idx = i;
        }
      }
      if (diffs == 1) return {state, idx};
    }
    return {nullptr, 0};
  }

  /// Caches `state` under its tuple, replacing any entry for that tuple.
  void insert(std::shared_ptr<AnalysisResult::State> state) {
    if (capacity_ == 0) return;
    if (const auto it = index_.find(state->input_probs); it != index_.end()) {
      // The old key views the replaced state's tuple: drop both.
      entries_.erase(it->second);
      index_.erase(it);
    }
    entries_.push_front(std::move(state));
    index_.emplace(entries_.front()->input_probs, entries_.begin());
    if (entries_.size() > capacity_) {
      index_.erase(entries_.back()->input_probs);
      entries_.pop_back();
    }
  }

  void clear() {
    index_.clear();
    entries_.clear();
  }

  std::size_t size() const { return entries_.size(); }

  std::size_t resident_bytes() const {
    std::size_t bytes = 0;
    for (const auto& state : entries_) bytes += cached_bytes(*state);
    return bytes;
  }

 private:
  using Key = std::span<const double>;
  using Entries = std::list<std::shared_ptr<AnalysisResult::State>>;

  struct KeyHash {
    std::size_t operator()(Key v) const {
      std::size_t h = v.size();
      for (double x : v)
        h = h * 1099511628211ull + std::hash<double>{}(x);
      return h;
    }
  };

  struct KeyEq {
    bool operator()(Key a, Key b) const { return std::ranges::equal(a, b); }
  };

  std::size_t capacity_;
  Entries entries_;  ///< front = most recent
  std::unordered_map<Key, Entries::iterator, KeyHash, KeyEq> index_;
};

// --- AnalysisSession --------------------------------------------------------

AnalysisSession::AnalysisSession(const Netlist& net, SessionOptions opts)
    : AnalysisSession(make_session(net, std::move(opts))) {}

AnalysisSession::AnalysisSession(
    const Netlist& net, std::shared_ptr<const SignalProbEngine> engine,
    std::vector<Fault> faults, SessionOptions opts) {
  if (!engine) throw std::invalid_argument("AnalysisSession: null engine");
  if (&engine->netlist() != &net)
    throw std::invalid_argument(
        "AnalysisSession: engine was built on a different netlist");
  cache_ = std::make_unique<ResultCache>(opts.max_cached_results);
  mu_ = std::make_unique<std::mutex>();
  shared_ = std::make_shared<detail::SessionShared>(
      net, std::move(opts), std::move(engine), std::move(faults));
}

AnalysisSession::~AnalysisSession() = default;
AnalysisSession::AnalysisSession(AnalysisSession&&) noexcept = default;

const Netlist& AnalysisSession::netlist() const { return shared_->net; }
const SignalProbEngine& AnalysisSession::engine() const {
  return *shared_->engine;
}
std::shared_ptr<const SignalProbEngine> AnalysisSession::engine_ptr() const {
  return shared_->engine;
}
const std::vector<Fault>& AnalysisSession::faults() const {
  return shared_->faults;
}
const SessionOptions& AnalysisSession::options() const {
  return shared_->opts;
}

SessionStats AnalysisSession::stats() const {
  const std::lock_guard<std::mutex> lock(*mu_);
  SessionStats s = stats_;
  s.resident_results = cache_->size();
  s.resident_bytes = cache_->resident_bytes();
  return s;
}

void AnalysisSession::record_lint(std::size_t errors, std::size_t warnings,
                                  std::size_t infos) {
  const std::lock_guard<std::mutex> lock(*mu_);
  ++stats_.lint_runs;
  stats_.lint_errors = errors;
  stats_.lint_warnings = warnings;
  stats_.lint_infos = infos;
}

void AnalysisSession::clear_cache() {
  const std::lock_guard<std::mutex> lock(*mu_);
  cache_->clear();
}

AnalysisResult AnalysisSession::wrap(
    std::shared_ptr<AnalysisResult::State> state,
    std::shared_ptr<AnalysisResult::Views> views,
    const AnalysisRequest& request, bool fresh) {
  AnalysisResult result(std::move(state), std::move(views), request);
  // Materialize the requested artifacts now; anything else stays lazy.
  // The test-length grid is derived per (d, e) on demand, but its input —
  // the detection probabilities — is the expensive part and belongs to
  // query time, not serialization time.  A cache hit builds no view: the
  // views of a live handle come attached, and otherwise the first read
  // rebuilds them, so a hit that only seeds a perturb never pays for them.
  if (fresh) {
    if (request.observability) result.observability();
    if (request.detection_probs || request.test_lengths)
      result.detection_probs();
  }
  if (request.scoap) result.scoap();
  if (request.stafan) result.stafan();
  if (request.fault_bounds) result.fault_bounds();
  return result;
}

std::shared_ptr<AnalysisResult::State> AnalysisSession::insert(
    std::vector<double> key, Evaluation eval) {
  auto state = std::make_shared<AnalysisResult::State>();
  state->shared = shared_;
  state->input_probs = std::move(key);
  state->eval = std::move(eval);
  cache_->insert(state);
  return state;
}

AnalysisResult AnalysisSession::analyze(std::span<const double> input_probs,
                                        AnalysisRequest request) {
  validate_input_probs(shared_->net, input_probs);
  std::shared_ptr<AnalysisResult::State> state;
  std::shared_ptr<AnalysisResult::Views> views;
  bool hit = false;
  {
    // Lookup, evaluate and insert form one step, so a tuple is evaluated
    // once however many callers ask for it; artifact materialization
    // (wrap) happens outside the session lock.
    const std::lock_guard<std::mutex> lock(*mu_);
    ++stats_.analyze_calls;
    const SignalProbEngine& engine = *shared_->engine;

    state = cache_->find(input_probs);
    hit = state != nullptr;
    if (hit) {
      ++stats_.cache_hits;
    } else {
      std::vector<double> key(input_probs.begin(), input_probs.end());
      Evaluation eval;
      if (engine.incremental()) {
        // A cached tuple one coordinate away feeds the incremental path,
        // which is bit-for-bit equivalent to the full evaluation below.
        if (auto [base, idx] = cache_->find_near(key); base) {
          eval = engine.perturb(base->input_probs, base->eval, idx, key[idx]);
          ++stats_.incremental_evals;
        }
      }
      if (eval.probs.empty()) {
        eval = engine.evaluate(key);
        ++stats_.full_evals;
      }
      state = insert(std::move(key), std::move(eval));
    }
    views = attach_views(*state);
  }
  return wrap(std::move(state), std::move(views), request, !hit);
}

std::vector<AnalysisResult> AnalysisSession::analyze_batch(
    std::span<const InputProbs> tuples, AnalysisRequest request) {
  std::vector<AnalysisResult> out;
  out.reserve(tuples.size());
  for (const InputProbs& t : tuples) out.push_back(analyze(t, request));
  return out;
}

void AnalysisSession::check_perturb_args(const AnalysisResult& base,
                                         std::size_t input_index,
                                         double new_p) const {
  if (!base.valid() || base.state_->shared != shared_)
    throw std::invalid_argument(
        "AnalysisSession::perturb: base result does not belong to this "
        "session");
  if (!base.state_->exact_fidelity)
    throw std::invalid_argument(
        "AnalysisSession::perturb: base result has screening fidelity "
        "(perturb_screen product) — re-analyze its tuple exactly first");
  if (input_index >= shared_->net.inputs().size())
    throw std::invalid_argument(
        "AnalysisSession::perturb: input index out of range");
  if (!(new_p >= 0.0 && new_p <= 1.0))
    throw std::invalid_argument(
        "AnalysisSession::perturb: probability outside [0,1]");
}

AnalysisResult AnalysisSession::perturb(const AnalysisResult& base,
                                        std::size_t input_index,
                                        double new_p) {
  check_perturb_args(base, input_index, new_p);
  std::shared_ptr<AnalysisResult::State> state;
  std::shared_ptr<AnalysisResult::Views> views;
  bool hit = false;
  {
    const std::lock_guard<std::mutex> lock(*mu_);
    std::vector<double> key = base.state_->input_probs;
    key[input_index] = new_p;
    state = cache_->find(key);
    hit = state != nullptr;
    if (hit) {
      ++stats_.cache_hits;
    } else {
      const SignalProbEngine& engine = *shared_->engine;
      Evaluation eval = engine.perturb(base.state_->input_probs,
                                       base.state_->eval, input_index, new_p);
      if (engine.incremental())
        ++stats_.incremental_evals;
      else
        ++stats_.full_evals;
      state = insert(std::move(key), std::move(eval));
    }
    views = attach_views(*state);
  }
  return wrap(std::move(state), std::move(views), base.request_, !hit);
}

AnalysisResult AnalysisSession::screen_one(const AnalysisResult& base,
                                           std::size_t input_index,
                                           double new_p) {
  // No cache lookup and no insertion: the cache holds exact-fidelity
  // tuples only, and screening must yield screening numbers
  // deterministically (a cached exact value would differ).
  auto state = std::make_shared<AnalysisResult::State>();
  state->shared = shared_;
  state->input_probs = base.state_->input_probs;
  state->input_probs[input_index] = new_p;
  state->eval.probs = shared_->engine->screen(
      base.state_->input_probs, base.state_->eval, input_index, new_p);
  state->exact_fidelity = false;
  return wrap(std::move(state), std::make_shared<AnalysisResult::Views>(),
              base.request_, true);
}

AnalysisResult AnalysisSession::perturb_screen(const AnalysisResult& base,
                                               std::size_t input_index,
                                               double new_p) {
  check_perturb_args(base, input_index, new_p);
  {
    const std::lock_guard<std::mutex> lock(*mu_);
    ++stats_.screen_evals;
  }
  return screen_one(base, input_index, new_p);
}

std::vector<AnalysisResult> AnalysisSession::perturb_screen_sweep(
    const AnalysisResult& base, std::size_t input_index,
    std::span<const double> values) {
  for (const double v : values) check_perturb_args(base, input_index, v);
  {
    const std::lock_guard<std::mutex> lock(*mu_);
    stats_.screen_evals += values.size();
  }
  std::vector<AnalysisResult> out(values.size());
  auto task = [&](std::size_t i, unsigned /*worker*/) {
    check_cancelled();  // task boundary: sweeps stop within one candidate
    out[i] = screen_one(base, input_index, values[i]);
  };
  // Every candidate conditions on the base's selection, so element i is
  // bit-for-bit the serial perturb_screen result on any worker.  Each
  // worker also materializes the requested artifacts (observability,
  // detection probabilities) inside wrap(), so the whole screening
  // pipeline runs in parallel.  Internally-parallel engines already fan
  // each candidate across every core.
  if (shared_->opts.parallel.resolved() == 1 ||
      shared_->engine->internally_parallel() || values.size() < 2) {
    for (std::size_t i = 0; i < values.size(); ++i) task(i, 0);
  } else {
    shared_->exec->parallel_for(values.size(), task);
  }
  return out;
}

}  // namespace protest
