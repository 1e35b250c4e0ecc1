#include "protest/supervisor.hpp"

#include <algorithm>
#include <ostream>

#include "analysis/json.hpp"

namespace protest {

// --- placement (platform-neutral, pure) -------------------------------------

std::uint64_t placement_fingerprint(std::string_view name, unsigned worker) {
  // FNV-1a over the name bytes, then a separator, then the worker index —
  // a fixed function of its inputs, so placement is stable across runs,
  // builds, and platforms (the fault-injection CI job pins specific
  // name -> worker assignments).
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const char c : name) mix(static_cast<unsigned char>(c));
  mix('/');
  for (unsigned v = worker;; v >>= 8) {
    mix(static_cast<unsigned char>(v & 0xff));
    if (v < 0x100) break;
  }
  return h;
}

unsigned worker_for_netlist(std::string_view name, unsigned workers) {
  // Rendezvous hashing: every (name, worker) pair gets a fingerprint and
  // the highest wins.  Unlike mod-N, growing the fleet only rehomes the
  // names whose new worker's fingerprint beats every old one.
  if (workers <= 1) return 0;
  unsigned best = 0;
  std::uint64_t best_fp = placement_fingerprint(name, 0);
  for (unsigned w = 1; w < workers; ++w) {
    const std::uint64_t fp = placement_fingerprint(name, w);
    if (fp > best_fp) {
      best_fp = fp;
      best = w;
    }
  }
  return best;
}

}  // namespace protest

#if defined(__unix__) || defined(__APPLE__)

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

extern char** environ;

namespace protest {
namespace {

/// Reads canonical JsonWriter(0) bytes in place: literal text, unsigned
/// integers and escape-free strings.  Every worker line is a
/// ServiceResponse::to_json(0), so its head sits at a fixed position; the
/// supervisor reads heads through this cursor and copies every byte after
/// them unread.
struct HeadCursor {
  std::string_view s;
  std::size_t at = 0;

  bool lit(std::string_view text) {
    if (s.substr(at, text.size()) != text) return false;
    at += text.size();
    return true;
  }
  bool uint(std::uint64_t* v) {
    const std::size_t begin = at;
    *v = 0;
    for (; at < s.size() && s[at] >= '0' && s[at] <= '9'; ++at)
      *v = *v * 10 + static_cast<std::uint64_t>(s[at] - '0');
    return at > begin;
  }
  /// A string body up to its closing quote (the opening one is part of
  /// the preceding literal); `v` may be null to skip it.
  bool text(std::string* v) {
    const std::size_t close = s.find('"', at);
    if (close == std::string_view::npos) return false;
    const std::string_view body = s.substr(at, close - at);
    if (body.find('\\') != std::string_view::npos) return false;
    if (v) *v = body;
    at = close + 1;
    return true;
  }
};

/// The canonical head of a worker response line,
/// `{"id":N,"verb":"V","ok":B,` then `"result":` or
/// `"error":{"code":"C",`.  A line without one is protocol corruption.
struct ResponseHead {
  std::uint64_t id = 0;
  bool ok = false;
  std::string code;        ///< the error code ("" when ok)
  std::size_t tail = 0;    ///< offset of `,"ok":`, where a relay resumes
  std::size_t result = 0;  ///< offset of the result value (ok lines)
};

std::optional<ResponseHead> read_response_head(std::string_view line) {
  HeadCursor c{line};
  ResponseHead h;
  if (!c.lit("{\"id\":") || !c.uint(&h.id) || !c.lit(",\"verb\":\"") ||
      !c.text(nullptr))
    return std::nullopt;
  h.tail = c.at;
  if (c.lit(",\"ok\":true,\"result\":")) {
    h.ok = true;
    h.result = c.at;
    return h;
  }
  if (c.lit(",\"ok\":false,\"error\":{\"code\":\"") && c.text(&h.code))
    return h;
  return std::nullopt;
}

/// The ticket an ok submit/poll/wait/cancel result starts with,
/// `{"job":N`, and the state that submit/poll/wait go on with,
/// `,"verb":"L","state":"S"` ("" when absent).
struct JobHead {
  std::uint64_t job = 0;
  std::string state;
  std::size_t rest = 0;  ///< offset just past the ticket digits
};

std::optional<JobHead> read_job_head(std::string_view line,
                                     const ResponseHead& head) {
  if (!head.ok) return std::nullopt;
  HeadCursor c{line, head.result};
  JobHead j;
  if (!c.lit("{\"job\":") || !c.uint(&j.job)) return std::nullopt;
  j.rest = c.at;
  if (c.lit(",\"verb\":\"") && c.text(nullptr) && c.lit(",\"state\":\""))
    c.text(&j.state);
  return j;
}

std::string failure_line(const ServiceRequest& req, const std::string& code,
                         const std::string& message) {
  return ServiceResponse::failure(req.id, to_string(req.verb), code, message)
      .to_json(0);
}

bool write_fd_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE and friends: the worker is gone
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

using Clock = std::chrono::steady_clock;

struct Pending {
  enum class State { Waiting, Done, Lost };
  State state = State::Waiting;
  std::string response;   ///< raw worker line (internal id still in place)
  ResponseHead head;      ///< read once, by the demultiplexer
  bool heartbeat = false; ///< monitor ping: response is discarded
};

struct Worker {
  enum class State {
    Up,          ///< serving; requests forward
    Restarting,  ///< dead; respawn scheduled at restart_at
    Spawning,    ///< respawned; replaying its placement table
    Abandoned,   ///< exceeded max_restarts; requests answer worker_lost
    Exited,      ///< drained and reaped during shutdown
  };

  unsigned index = 0;
  pid_t pid = -1;
  int wfd = -1;  ///< to the worker's stdin
  int rfd = -1;  ///< from the worker's stdout
  State state = State::Restarting;
  std::uint64_t generation = 0;  ///< bumped per spawn (0 = never spawned)
  unsigned consecutive_failures = 0;
  std::uint64_t restarts = 0;  ///< respawns performed (first spawn not counted)
  Clock::time_point restart_at{};
  Clock::time_point last_line{};            ///< any line from the worker
  Clock::time_point last_heartbeat_sent{};
  bool kill_sent = false;
  std::map<std::uint64_t, std::shared_ptr<Pending>> pending;
  std::thread demux;
  std::mutex write_mu;  ///< serializes request lines onto wfd
};

const char* to_string(Worker::State s) {
  switch (s) {
    case Worker::State::Up: return "up";
    case Worker::State::Restarting: return "restarting";
    case Worker::State::Spawning: return "spawning";
    case Worker::State::Abandoned: return "abandoned";
    case Worker::State::Exited: return "exited";
  }
  return "?";
}

}  // namespace

// --- the supervisor ---------------------------------------------------------

struct Supervisor::Impl {
  SupervisorOptions opts;
  std::ostream& log;

  mutable std::mutex mu;            ///< workers, pendings, maps, counters
  std::condition_variable cv;       ///< pending/worker state changed
  std::condition_variable monitor_cv;
  std::vector<std::unique_ptr<Worker>> workers;
  /// name -> the original load_netlist request, replayed into a restarted
  /// worker before it re-enters service.
  std::map<std::string, ServiceRequest> placement;
  struct JobEntry {
    unsigned worker = 0;
    std::uint64_t local = 0;       ///< the worker's ticket id
    std::uint64_t generation = 0;  ///< worker generation the job ran in
    std::string label;             ///< inner verb name
  };
  std::map<std::uint64_t, JobEntry> job_map;  ///< global ticket -> entry
  std::uint64_t next_internal = 1;
  std::uint64_t next_job = 1;
  SupervisorCounters counters;
  std::atomic<bool> shutdown{false};
  bool draining = false;  ///< shutdown in progress: no restarts, no forwards
  bool stopping = false;  ///< monitor exit flag
  std::thread monitor;
  std::string worker_binary;

  Impl(SupervisorOptions o, std::ostream& l) : opts(std::move(o)), log(l) {
    if (opts.workers == 0) opts.workers = 1;
    if (opts.worker_inflight == 0) opts.worker_inflight = 1;
    if (opts.heartbeat_timeout < 2 * opts.heartbeat_interval)
      opts.heartbeat_timeout = 2 * opts.heartbeat_interval;
    ::signal(SIGPIPE, SIG_IGN);  // dead-worker pipe writes fail, not kill
    worker_binary = resolve_worker_binary();
    for (unsigned i = 0; i < opts.workers; ++i) {
      auto w = std::make_unique<Worker>();
      w->index = i;
      workers.push_back(std::move(w));
    }
    for (auto& w : workers) {
      if (!spawn(*w))
        throw ServiceError("internal", "failed to spawn worker " +
                                           std::to_string(w->index) + " (" +
                                           worker_binary + ")");
      w->state = Worker::State::Up;
    }
    monitor = std::thread([this] { monitor_loop(); });
  }

  ~Impl() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stopping = true;
      draining = true;
      monitor_cv.notify_all();
      cv.notify_all();
    }
    if (monitor.joinable()) monitor.join();
    for (auto& w : workers) {
      const pid_t pid = w->pid;  // -1 once route_shutdown reaped it
      if (pid > 0) ::kill(pid, SIGKILL);
      if (w->wfd >= 0) ::close(w->wfd);
      if (w->demux.joinable()) w->demux.join();
      if (w->rfd >= 0) ::close(w->rfd);
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  }

  std::string resolve_worker_binary() const {
    if (!opts.worker_binary.empty()) return opts.worker_binary;
    if (const char* env = std::getenv("PROTEST_BIN"); env && *env) return env;
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
      buf[n] = '\0';
      return buf;
    }
    throw ServiceError("internal",
                       "cannot resolve the worker binary: set PROTEST_BIN or "
                       "pass --worker-binary");
  }

  /// Spawns a worker process into `w` (pid/fds/generation) and starts its
  /// demultiplexer thread.  Caller owns w.state transitions.
  bool spawn(Worker& w) {
    int in_pipe[2] = {-1, -1}, out_pipe[2] = {-1, -1};
    if (::pipe(in_pipe) != 0) return false;
    if (::pipe(out_pipe) != 0) {
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      return false;
    }
    // Parent ends are CLOEXEC so one worker never inherits another's
    // pipes (a leaked write end would keep a sibling's stdin open past
    // its shutdown).  The child's own ends are re-opened by the dup2s.
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
      set_cloexec(fd);

    std::vector<std::string> arg_storage = {worker_binary, "__serve-worker",
                                            "--inflight",
                                            std::to_string(opts.worker_inflight)};
    arg_storage.insert(arg_storage.end(), opts.worker_args.begin(),
                       opts.worker_args.end());
    std::vector<char*> argv;
    argv.reserve(arg_storage.size() + 1);
    for (std::string& s : arg_storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    // Rebuild the environment: scrub any inherited fault/index variables,
    // then pin this worker's index.  The fault spec reaches FIRST spawns
    // only — restarted workers run clean, so injected faults are
    // one-shot and the scripted counters stay exact.
    std::vector<std::string> env_storage;
    for (char** e = environ; *e; ++e) {
      const std::string_view entry(*e);
      if (entry.rfind("PROTEST_FAULT_INJECT=", 0) == 0) continue;
      if (entry.rfind("PROTEST_WORKER_INDEX=", 0) == 0) continue;
      env_storage.emplace_back(entry);
    }
    env_storage.push_back("PROTEST_WORKER_INDEX=" + std::to_string(w.index));
    // generation is 0 exactly until this first spawn bumps it below:
    // restarted workers run clean, so injected faults are one-shot.
    if (w.generation == 0 && !opts.fault_spec.empty())
      env_storage.push_back("PROTEST_FAULT_INJECT=" + opts.fault_spec);
    std::vector<char*> envp;
    envp.reserve(env_storage.size() + 1);
    for (std::string& e : env_storage) envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, worker_binary.c_str(), &fa, nullptr,
                                 argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    if (rc != 0) {
      ::close(in_pipe[1]);
      ::close(out_pipe[0]);
      return false;
    }
    w.pid = pid;
    w.wfd = in_pipe[1];
    w.rfd = out_pipe[0];
    w.generation += 1;
    w.kill_sent = false;
    w.last_line = Clock::now();
    w.last_heartbeat_sent = w.last_line;
    log << "protest supervisor: worker " << w.index << " spawned (pid " << pid
        << ", generation " << w.generation << ")\n"
        << std::flush;
    w.demux = std::thread([this, &w] { demux_loop(w); });
    return true;
  }

  // --- worker output demultiplexer ------------------------------------------

  void demux_loop(Worker& w) {
    const int fd = w.rfd;  // stable: closed only after this thread joins
    std::string buf;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        std::string line = buf.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        on_worker_line(w, std::move(line));
      }
      buf.erase(0, start);
    }
    const std::lock_guard<std::mutex> lock(mu);
    on_worker_gone_locked(w);
  }

  void on_worker_line(Worker& w, std::string line) {
    const std::lock_guard<std::mutex> lock(mu);
    w.last_line = Clock::now();
    std::optional<ResponseHead> head = read_response_head(line);
    if (!head) {
      // Not a response head: protocol corruption.  The worker is beyond
      // trusting — kill it; the EOF path retries/fails its pendings, so
      // corrupt bytes are never forwarded to a client.
      ++counters.garbage;
      log << "protest supervisor: worker " << w.index
          << " emitted garbage; killing it\n"
          << std::flush;
      kill_worker_locked(w);
      return;
    }
    const auto it = w.pending.find(head->id);
    if (it == w.pending.end()) return;  // abandoned (deadline backstop): drop
    const std::shared_ptr<Pending> p = it->second;
    w.pending.erase(it);
    if (p->heartbeat) {
      // A worker answering heartbeats is healthy: restart streak over.
      w.consecutive_failures = 0;
      p->state = Pending::State::Done;
      return;
    }
    p->state = Pending::State::Done;
    p->response = std::move(line);
    p->head = std::move(*head);
    cv.notify_all();
  }

  /// EOF on a worker's stdout: the process crashed, was killed, or
  /// drained out during shutdown.  Every pending request on it resolves
  /// Lost; outside shutdown a respawn is scheduled with capped backoff.
  void on_worker_gone_locked(Worker& w) {
    for (auto& [id, p] : w.pending) {
      p->state = Pending::State::Lost;
    }
    w.pending.clear();
    if (draining) {
      w.state = Worker::State::Exited;
    } else {
      ++w.consecutive_failures;
      if (w.consecutive_failures > opts.max_restarts) {
        w.state = Worker::State::Abandoned;
        log << "protest supervisor: worker " << w.index << " abandoned after "
            << opts.max_restarts << " consecutive failures\n"
            << std::flush;
      } else {
        const auto delay = opts.backoff.delay(w.consecutive_failures - 1);
        w.state = Worker::State::Restarting;
        w.restart_at = Clock::now() + delay;
        log << "protest supervisor: worker " << w.index << " (pid " << w.pid
            << ") died; restarting in " << delay.count() << " ms\n"
            << std::flush;
      }
    }
    cv.notify_all();
    monitor_cv.notify_all();
  }

  void kill_worker_locked(Worker& w) {
    if (w.pid > 0 && !w.kill_sent) {
      ::kill(w.pid, SIGKILL);
      w.kill_sent = true;
    }
  }

  // --- monitor: heartbeats, wedge detection, restarts -----------------------

  void monitor_loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      monitor_cv.wait_for(
          lock, std::min<std::chrono::milliseconds>(
                    opts.heartbeat_interval, std::chrono::milliseconds(100)));
      if (stopping) break;
      if (draining) continue;  // shutdown owns the fleet from here
      const auto now = Clock::now();

      // Heartbeats + wedge detection.
      struct Beat {
        int wfd;
        Worker* w;
        std::string line;
      };
      std::vector<Beat> beats;
      for (auto& w : workers) {
        if (w->state != Worker::State::Up) continue;
        if (now - w->last_line > opts.heartbeat_timeout) {
          ++counters.wedges;
          log << "protest supervisor: worker " << w->index
              << " missed heartbeats for "
              << std::chrono::duration_cast<std::chrono::milliseconds>(
                     now - w->last_line)
                     .count()
              << " ms; killing it as wedged\n"
              << std::flush;
          kill_worker_locked(*w);
          continue;
        }
        if (now - w->last_heartbeat_sent < opts.heartbeat_interval) continue;
        const std::uint64_t id = next_internal++;
        auto p = std::make_shared<Pending>();
        p->heartbeat = true;
        w->pending.emplace(id, std::move(p));
        w->last_heartbeat_sent = now;
        beats.push_back(
            {w->wfd, w.get(),
             "{\"verb\":\"stats\",\"id\":" + std::to_string(id) + "}"});
      }
      if (!beats.empty()) {
        // Pipe writes drop the state lock: a worker with a full pipe must
        // stall only its own heartbeat, never the whole supervisor.
        lock.unlock();
        for (Beat& b : beats) {
          const std::lock_guard<std::mutex> wl(b.w->write_mu);
          write_fd_all(b.wfd, b.line + "\n");  // failure -> EOF path soon
        }
        lock.lock();
      }

      // Restarts (the loop re-checks each state under the re-acquired
      // lock, so the heartbeat unlock above cannot stale it).
      for (auto& w : workers) {
        if (w->state != Worker::State::Restarting || draining) continue;
        if (Clock::now() < w->restart_at) continue;
        respawn_locked(lock, *w);
      }
    }
  }

  /// Respawns `w` (lock held on entry and exit, dropped around process
  /// plumbing) and replays its share of the placement table before
  /// marking it Up.
  void respawn_locked(std::unique_lock<std::mutex>& lock, Worker& w) {
    w.state = Worker::State::Spawning;
    const pid_t old_pid = w.pid;
    lock.unlock();
    if (w.demux.joinable()) w.demux.join();
    if (old_pid > 0) {
      ::kill(old_pid, SIGKILL);  // idempotent; guarantees waitpid returns
      ::waitpid(old_pid, nullptr, 0);
    }
    if (w.wfd >= 0) ::close(w.wfd);
    if (w.rfd >= 0) ::close(w.rfd);
    w.wfd = w.rfd = -1;
    w.pid = -1;
    const bool spawned = spawn(w);
    lock.lock();
    if (!spawned) {
      ++w.consecutive_failures;
      if (w.consecutive_failures > opts.max_restarts) {
        w.state = Worker::State::Abandoned;
      } else {
        w.state = Worker::State::Restarting;
        w.restart_at =
            Clock::now() + opts.backoff.delay(w.consecutive_failures - 1);
      }
      cv.notify_all();
      return;
    }
    ++counters.restarts;
    ++w.restarts;

    // Replay this worker's netlists so retried requests land on a worker
    // that knows them.  The worker is Spawning while we replay: client
    // forwards keep waiting.
    std::vector<ServiceRequest> replays;
    for (const auto& [name, req] : placement) {
      if (worker_for_netlist(name, opts.workers) == w.index)
        replays.push_back(req);
    }
    bool ok = true;
    for (ServiceRequest& req : replays) {
      const std::uint64_t id = next_internal++;
      req.id = id;
      auto p = std::make_shared<Pending>();
      w.pending.emplace(id, p);
      const int wfd = w.wfd;
      lock.unlock();
      bool wrote;
      {
        const std::lock_guard<std::mutex> wl(w.write_mu);
        wrote = write_fd_all(wfd, req.to_json(0) + "\n");
      }
      lock.lock();
      if (!wrote) {
        ok = false;
        break;
      }
      const bool done = cv.wait_for(lock, std::chrono::seconds(30), [&] {
        return p->state != Pending::State::Waiting || stopping;
      });
      if (!done || p->state != Pending::State::Done) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      // The fresh worker died or wedged during replay: kill it and let
      // the EOF path schedule the next (backed-off) attempt.
      kill_worker_locked(w);
      return;
    }
    if (w.state == Worker::State::Spawning) {
      w.state = Worker::State::Up;
      log << "protest supervisor: worker " << w.index
          << " back up (generation " << w.generation << ", " << replays.size()
          << " netlist(s) replayed)\n"
          << std::flush;
      cv.notify_all();
    }
  }

  // --- request forwarding ---------------------------------------------------

  struct ForwardResult {
    enum class Kind { Ok, Lost, Timeout, Unavailable };
    ForwardResult(Kind k, std::string l = {}, ResponseHead h = {})
        : kind(k), line(std::move(l)), head(std::move(h)) {}
    Kind kind;
    std::string line;   ///< set when Ok: raw worker response (internal id)
    ResponseHead head;  ///< set when Ok: the line's head
  };

  /// Forwards `req` to worker `widx` and waits for its response.  A verb
  /// the verb table marks `retried` (the idempotent reads) is re-forwarded
  /// ONCE after a worker loss.  `backstop` is the supervisor-side
  /// deadline guard; a pending that outlives it is abandoned (its late
  /// response dropped).  `require_generation`, when set, refuses to wait
  /// for a restart — job-scoped requests are only meaningful against the
  /// generation the ticket lives in.
  ForwardResult forward(unsigned widx, ServiceRequest req,
                        const std::optional<Clock::time_point>& backstop,
                        std::optional<std::uint64_t> require_generation =
                            std::nullopt) {
    const bool retryable = spec_of(req.verb).retried;
    for (int attempt = 0;; ++attempt) {
      std::shared_ptr<Pending> p;
      std::uint64_t internal = 0;
      int wfd = -1;
      Worker* wp = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        Worker& w = *workers[widx];
        for (;;) {
          if (draining && w.state != Worker::State::Up)
            return {ForwardResult::Kind::Unavailable};
          if (w.state == Worker::State::Up) {
            if (require_generation && w.generation != *require_generation)
              return {ForwardResult::Kind::Lost};
            break;
          }
          if (w.state == Worker::State::Abandoned)
            return {ForwardResult::Kind::Unavailable};
          if (require_generation) return {ForwardResult::Kind::Lost};
          if (backstop) {
            if (cv.wait_until(lock, *backstop) == std::cv_status::timeout &&
                Clock::now() >= *backstop)
              return {ForwardResult::Kind::Timeout};
          } else {
            cv.wait(lock);
          }
        }
        internal = next_internal++;
        req.id = internal;
        p = std::make_shared<Pending>();
        w.pending.emplace(internal, p);
        wfd = w.wfd;
        wp = &w;
      }

      bool wrote;
      {
        const std::lock_guard<std::mutex> wl(wp->write_mu);
        wrote = write_fd_all(wfd, req.to_json(0) + "\n");
      }

      {
        std::unique_lock<std::mutex> lock(mu);
        if (!wrote && p->state == Pending::State::Waiting) {
          wp->pending.erase(internal);
          p->state = Pending::State::Lost;
        }
        while (p->state == Pending::State::Waiting) {
          if (backstop) {
            if (cv.wait_until(lock, *backstop) == std::cv_status::timeout &&
                Clock::now() >= *backstop &&
                p->state == Pending::State::Waiting) {
              // Abandon: the id leaves the map, so a late response from a
              // merely-slow worker is dropped, not misdelivered.
              wp->pending.erase(internal);
              return {ForwardResult::Kind::Timeout};
            }
          } else {
            cv.wait(lock);
          }
        }
        if (p->state == Pending::State::Done)
          return {ForwardResult::Kind::Ok, std::move(p->response),
                  std::move(p->head)};
        // Lost: the worker died with the request in flight.
        if (retryable && attempt == 0 && !draining) {
          ++counters.retries;
          continue;  // the restarted worker replays netlists before Up
        }
        return {ForwardResult::Kind::Lost};
      }
    }
  }

  /// Converts a non-Ok forward into the structured client response.
  std::string forward_error(const ForwardResult& r, const ServiceRequest& req) {
    const std::lock_guard<std::mutex> lock(mu);
    if (r.kind == ForwardResult::Kind::Timeout) {
      ++counters.timeouts;
      return failure_line(req, "deadline_exceeded",
                          "request exceeded its deadline_ms=" +
                              std::to_string(req.deadline_ms.value_or(0)) +
                              " budget (supervisor backstop)");
    }
    ++counters.worker_lost;
    return failure_line(req, "worker_lost",
                        std::string("the worker owning this request died") +
                            (r.kind == ForwardResult::Kind::Unavailable
                                 ? " and is not coming back"
                                 : " while handling it"));
  }

  std::optional<Clock::time_point> backstop_of(const ServiceRequest& req) {
    if (!req.deadline_ms) return std::nullopt;
    return deadline_after(std::chrono::milliseconds(*req.deadline_ms) +
                          opts.deadline_grace);
  }

  /// The client's copy of an Ok forward: the worker line with the
  /// client's id and verb in its head and, when `ticket` is set,
  /// ticket->job in place of the worker's ticket.  Every other byte is
  /// the worker's.  A line whose own error code is deadline_exceeded counts
  /// as a timeout; a job result that merely embeds one does not.
  std::string relay(const ForwardResult& r, const ServiceRequest& req,
                    const std::optional<JobHead>& ticket = std::nullopt) {
    const ResponseHead& h = r.head;
    if (!h.ok && h.code == "deadline_exceeded") {
      const std::lock_guard<std::mutex> lock(mu);
      ++counters.timeouts;
    }
    std::string out = "{\"id\":" + std::to_string(req.id) + ",\"verb\":\"";
    out += to_string(req.verb);
    out += '"';
    if (!ticket) return out.append(r.line, h.tail);
    out.append(r.line, h.tail, h.result - h.tail);
    out += "{\"job\":" + std::to_string(ticket->job);
    return out.append(r.line, ticket->rest);
  }

  // --- verb routing ---------------------------------------------------------

  std::string route(const ServiceRequest& req) {
    switch (req.verb) {
      case ServiceVerb::Stats:
        if (req.netlist.empty()) return local_stats(req);
        [[fallthrough]];
      case ServiceVerb::Analyze:
      case ServiceVerb::Perturb:
      case ServiceVerb::Lint:
      case ServiceVerb::FaultBounds:
      case ServiceVerb::Optimize:
      case ServiceVerb::Evict:
        return route_netlist(req);
      case ServiceVerb::LoadNetlist:
        return route_load(req);
      case ServiceVerb::Submit:
        return route_submit(req);
      case ServiceVerb::Poll:
      case ServiceVerb::Cancel:
      case ServiceVerb::Wait:
        return route_job(req);
      case ServiceVerb::Jobs:
        return route_jobs(req);
      case ServiceVerb::Shutdown:
        return route_shutdown(req);
    }
    return failure_line(req, "unknown_verb", "unhandled verb");
  }

  std::string route_netlist(const ServiceRequest& req) {
    const ForwardResult r = forward(
        worker_for_netlist(req.netlist, opts.workers), req, backstop_of(req));
    if (r.kind != ForwardResult::Kind::Ok) return forward_error(r, req);
    return relay(r, req);
  }

  std::string route_load(const ServiceRequest& req) {
    const ForwardResult r = forward(
        worker_for_netlist(req.netlist, opts.workers), req, backstop_of(req));
    if (r.kind != ForwardResult::Kind::Ok) return forward_error(r, req);
    if (r.head.ok) {
      const std::lock_guard<std::mutex> lock(mu);
      placement[req.netlist] = req;  // replayed into restarted workers
    }
    return relay(r, req);
  }

  std::string route_submit(const ServiceRequest& req) {
    if (!req.subrequest)
      return failure_line(req, "bad_request",
                          "submit requires a 'request' object (the verb to "
                          "run as a job)");
    const unsigned widx =
        worker_for_netlist(req.subrequest->netlist, opts.workers);
    const ForwardResult r = forward(widx, req, backstop_of(req));
    if (r.kind != ForwardResult::Kind::Ok) return forward_error(r, req);
    // Map the worker-local ticket to a supervisor-global one.
    std::optional<JobHead> ticket = read_job_head(r.line, r.head);
    if (!ticket) return relay(r, req);  // validation error: relay as-is
    {
      const std::lock_guard<std::mutex> lock(mu);
      const std::uint64_t global = next_job++;
      job_map[global] = {widx, ticket->job, workers[widx]->generation,
                         std::string(to_string(req.subrequest->verb))};
      ticket->job = global;
    }
    return relay(r, req, ticket);
  }

  /// poll, cancel and wait, at the worker and generation holding the
  /// ticket.  `wait` never forwards as wait: the worker would block its
  /// inline verb lane (shared with heartbeats) for the whole wait.  The
  /// supervisor polls instead, so a long wait costs the worker nothing
  /// and wedge detection keeps working throughout.
  std::string route_job(const ServiceRequest& req) {
    if (!req.job)
      return failure_line(req, "bad_request",
                          "verb '" + std::string(to_string(req.verb)) +
                              "' requires a 'job' ticket id");
    const bool wait = req.verb == ServiceVerb::Wait;
    const auto started = Clock::now();
    const auto backstop = backstop_of(req);
    const bool bounded = req.timeout_ms.has_value();
    const std::chrono::milliseconds budget{
        bounded ? static_cast<std::int64_t>(*req.timeout_ms) : 0};
    ServiceRequest fwd = req;
    if (wait) {
      fwd.verb = ServiceVerb::Poll;
      fwd.timeout_ms.reset();
    }
    for (;;) {
      JobEntry entry;
      bool lost = false;
      {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = job_map.find(*req.job);
        if (it == job_map.end())
          return failure_line(req, "unknown_job",
                              "no job with ticket id " +
                                  std::to_string(*req.job));
        entry = it->second;
        const Worker& w = *workers[entry.worker];
        lost =
            w.state != Worker::State::Up || w.generation != entry.generation;
      }
      if (lost) return lost_response(req, entry);
      fwd.job = entry.local;
      const ForwardResult r =
          forward(entry.worker, fwd, backstop, entry.generation);
      if (r.kind == ForwardResult::Kind::Lost ||
          r.kind == ForwardResult::Kind::Unavailable)
        return lost_response(req, entry);
      if (r.kind != ForwardResult::Kind::Ok) return forward_error(r, req);
      std::optional<JobHead> ticket = read_job_head(r.line, r.head);
      if (ticket) ticket->job = *req.job;  // back to the global ticket
      const std::string state = ticket ? ticket->state : "";
      const bool terminal = state.empty() || state == "done" ||
                            state == "failed" || state == "cancelled";
      if (!wait || terminal || (bounded && Clock::now() - started >= budget))
        return relay(r, req, ticket);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// The ticket's process died: poll/wait answer the job as failed with
  /// a worker_lost error, so it survives the restart as an observable
  /// failure, never as an orphan; cancel reports nothing left to cancel.
  std::string lost_response(const ServiceRequest& req, const JobEntry& entry) {
    JsonWriter w(0);
    w.begin_object();
    w.key("job").value(*req.job);
    if (req.verb == ServiceVerb::Cancel) {
      w.key("requested").value(false);
    } else {
      w.key("verb").value(entry.label);
      w.key("state").value("failed");
      w.key("error").value(
          "worker_lost: the worker process running this job died");
    }
    w.end_object();
    return ServiceResponse::success(req, w.str()).to_json(0);
  }

  std::string route_jobs(const ServiceRequest& req) {
    // Snapshot the fleet, query each live worker, then merge under the
    // global ticket numbering (synthesizing failed entries for tickets
    // whose generation died).
    struct Listed {
      std::uint64_t global;
      std::string label;
      std::string state;
    };
    std::vector<Listed> listed;
    std::vector<std::pair<unsigned, std::uint64_t>> live;  // widx, generation
    {
      const std::lock_guard<std::mutex> lock(mu);
      for (const auto& w : workers)
        if (w->state == Worker::State::Up)
          live.emplace_back(w->index, w->generation);
    }
    std::map<std::pair<unsigned, std::uint64_t>,
             std::map<std::uint64_t, std::string>>
        reported;  // (widx, local) are unique per generation snapshot
    for (const auto& [widx, gen] : live) {
      ServiceRequest fwd;
      fwd.verb = ServiceVerb::Jobs;
      const ForwardResult r = forward(widx, fwd, backstop_of(req), gen);
      if (r.kind != ForwardResult::Kind::Ok) continue;  // merged as lost below
      try {
        const JsonValue doc = parse_json(r.line);
        for (const JsonValue& j :
             doc.at("result").at("jobs").as_array()) {
          reported[{widx, gen}][protocol_uint(j.at("job"))] =
              j.at("state").as_string();
        }
      } catch (const std::exception&) {
        // Unparseable listing: treat as no report; tickets merge as-is.
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      for (const auto& [global, entry] : job_map) {
        const Worker& w = *workers[entry.worker];
        const bool gone =
            w.state != Worker::State::Up || w.generation != entry.generation;
        if (gone) {
          listed.push_back({global, entry.label, "failed"});
          continue;
        }
        const auto rep = reported.find({entry.worker, entry.generation});
        if (rep != reported.end()) {
          const auto it = rep->second.find(entry.local);
          if (it != rep->second.end())
            listed.push_back({global, entry.label, it->second});
          // Pruned by the worker's retention cap: drop from the listing,
          // matching the single-process behavior.
        }
      }
    }
    std::sort(listed.begin(), listed.end(),
              [](const Listed& a, const Listed& b) { return a.global < b.global; });
    JsonWriter w(0);
    w.begin_object();
    w.key("jobs").begin_array();
    for (const Listed& j : listed) {
      w.begin_object();
      w.key("job").value(j.global);
      w.key("verb").value(j.label);
      w.key("state").value(j.state);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return ServiceResponse::success(req, w.str()).to_json(0);
  }

  std::string local_stats(const ServiceRequest& req) {
    const std::lock_guard<std::mutex> lock(mu);
    JsonWriter w(0);
    w.begin_object();
    w.key("registered").begin_array();
    for (const auto& entry : placement) w.value(entry.first);
    w.end_array();
    w.key("workers").value(static_cast<std::uint64_t>(opts.workers));
    w.key("supervisor").begin_object();
    w.key("workers").begin_array();
    for (const auto& wk : workers) {
      w.begin_object();
      w.key("index").value(static_cast<std::uint64_t>(wk->index));
      w.key("pid").value(static_cast<std::int64_t>(wk->pid));
      w.key("generation").value(wk->generation);
      w.key("state").value(to_string(wk->state));
      w.key("restarts").value(wk->restarts);
      w.key("netlists").begin_array();
      for (const auto& entry : placement)
        if (worker_for_netlist(entry.first, opts.workers) == wk->index)
          w.value(entry.first);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("counters").begin_object();
    w.key("restarts").value(counters.restarts);
    w.key("retries").value(counters.retries);
    w.key("timeouts").value(counters.timeouts);
    w.key("worker_lost").value(counters.worker_lost);
    w.key("wedges").value(counters.wedges);
    w.key("garbage").value(counters.garbage);
    w.key("drained_requests").value(counters.drained);
    w.end_object();
    w.key("heartbeat_ms").value(static_cast<std::uint64_t>(
        opts.heartbeat_interval.count()));
    w.key("max_restarts").value(static_cast<std::uint64_t>(opts.max_restarts));
    w.end_object();
    w.end_object();
    return ServiceResponse::success(req, w.str()).to_json(0);
  }

  /// Drain, then stop every worker, then reap: outstanding requests get
  /// their responses first (counted as drained), each live worker
  /// receives its own shutdown verb (cancelling its jobs at their next
  /// checkpoint), and stragglers are killed — the supervisor never exits
  /// leaving orphan processes behind.
  std::string route_shutdown(const ServiceRequest& req) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (shutdown.load())  // idempotent: a second shutdown just echoes
        return ServiceResponse::success(req, "{\"shutting_down\":true}")
            .to_json(0);
      draining = true;
      const auto count_pending = [this] {
        std::size_t n = 0;
        for (const auto& w : workers)
          for (const auto& [id, p] : w->pending)
            if (!p->heartbeat) ++n;
        return n;
      };
      const std::size_t outstanding = count_pending();
      cv.wait_for(lock, std::chrono::seconds(10),
                  [&] { return count_pending() == 0; });
      counters.drained +=
          static_cast<std::uint64_t>(outstanding - count_pending());
    }
    // Ask each live worker to shut down; its serve loop exits after
    // responding, closing its stdout (EOF -> Exited above).
    for (const auto& w : workers) {
      std::uint64_t id = 0;
      int wfd = -1;
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (w->state != Worker::State::Up) continue;
        id = next_internal++;
        auto p = std::make_shared<Pending>();
        p->heartbeat = true;  // response needs no delivery
        w->pending.emplace(id, std::move(p));
        wfd = w->wfd;
      }
      const std::lock_guard<std::mutex> wl(w->write_mu);
      write_fd_all(wfd,
                   "{\"verb\":\"shutdown\",\"id\":" + std::to_string(id) +
                       "}\n");
    }
    // Reap: close stdin (EOF is a second stop signal), give each worker
    // a moment to exit, then force it.
    for (const auto& w : workers) {
      if (w->pid <= 0) continue;
      if (w->wfd >= 0) {
        ::close(w->wfd);
        w->wfd = -1;
      }
      bool reaped = false;
      for (int i = 0; i < 100; ++i) {  // up to ~2 s of polite waiting
        const pid_t r = ::waitpid(w->pid, nullptr, WNOHANG);
        if (r == w->pid || (r < 0 && errno == ECHILD)) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!reaped) {
        ::kill(w->pid, SIGKILL);
        ::waitpid(w->pid, nullptr, 0);
      }
      if (w->demux.joinable()) w->demux.join();
      if (w->rfd >= 0) {
        ::close(w->rfd);
        w->rfd = -1;
      }
      const std::lock_guard<std::mutex> lock(mu);
      w->state = Worker::State::Exited;
      w->pid = -1;
    }
    shutdown.store(true, std::memory_order_release);
    {
      const std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
      monitor_cv.notify_all();
    }
    return ServiceResponse::success(req, "{\"shutting_down\":true}")
        .to_json(0);
  }
};

Supervisor::Supervisor(SupervisorOptions options, std::ostream& log)
    : impl_(std::make_unique<Impl>(std::move(options), log)) {}

Supervisor::~Supervisor() = default;

bool Supervisor::shutdown_requested() const {
  return impl_->shutdown.load(std::memory_order_acquire);
}

SupervisorCounters Supervisor::counters() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->counters;
}

const SupervisorOptions& Supervisor::options() const { return impl_->opts; }

std::string Supervisor::respond(const ServiceRequest& request) {
  try {
    return impl_->route(request);
  } catch (const std::exception& e) {
    return failure_line(request, "internal", e.what());
  }
}

bool supervisor_supported() { return true; }

}  // namespace protest

#else  // no POSIX process plumbing

namespace protest {

struct Supervisor::Impl {};

Supervisor::Supervisor(SupervisorOptions, std::ostream&) {
  throw ServiceError("unsupported",
                     "supervised multi-process serving requires POSIX pipes "
                     "and process spawning; use a single-process serve");
}

Supervisor::~Supervisor() = default;

std::string Supervisor::respond(const ServiceRequest&) { return ""; }

bool Supervisor::shutdown_requested() const { return true; }

SupervisorCounters Supervisor::counters() const { return {}; }

const SupervisorOptions& Supervisor::options() const {
  static const SupervisorOptions opts;
  return opts;
}

bool supervisor_supported() { return false; }

}  // namespace protest

#endif
