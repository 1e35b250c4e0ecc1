#include "protest/fault_inject.hpp"

#include <cstdlib>
#include <stdexcept>

#include "protest/service.hpp"

namespace protest {
namespace {

// Splits on `sep`, keeping empty segments out.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    const std::string part =
        s.substr(start, end == std::string::npos ? std::string::npos : end - start);
    if (!part.empty()) parts.push_back(part);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return parts;
}

[[noreturn]] void bad_rule(const std::string& rule, const std::string& why) {
  throw std::invalid_argument("fault-inject rule '" + rule + "': " + why);
}

std::uint32_t parse_number(const std::string& rule, const std::string& text,
                           unsigned long min, const char* what) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    bad_rule(rule, what);
  }
  unsigned long v = 0;
  try {
    v = std::stoul(text);
  } catch (const std::exception&) {
    bad_rule(rule, what);
  }
  if (v < min || v > 1000000) bad_rule(rule, what);
  return static_cast<std::uint32_t>(v);
}

}  // namespace

FaultInjector FaultInjector::parse(const std::string& spec, int worker_index) {
  FaultInjector inj;
  for (const std::string& raw : split(spec, ',')) {
    std::string rest = raw;
    FaultRule rule;
    // Optional worker scope: w<K>:
    if (rest.size() >= 2 && rest[0] == 'w' &&
        rest[1] >= '0' && rest[1] <= '9') {
      const std::size_t colon = rest.find(':');
      if (colon == std::string::npos) bad_rule(raw, "missing ':' after worker scope");
      rule.worker_index = static_cast<int>(
          parse_number(raw, rest.substr(1, colon - 1), 0, "bad worker index"));
      rest = rest.substr(colon + 1);
    }
    const std::size_t at = rest.find('@');
    if (at == std::string::npos) bad_rule(raw, "expected <action>@<verb>");
    const std::string action = rest.substr(0, at);
    if (action == "crash") {
      rule.action = FaultAction::Crash;
    } else if (action == "stall") {
      rule.action = FaultAction::Stall;
    } else if (action == "garbage") {
      rule.action = FaultAction::Garbage;
    } else {
      bad_rule(raw, "unknown action (want crash|stall|garbage)");
    }
    std::string verb = rest.substr(at + 1);
    const std::size_t colon = verb.find(':');
    if (colon != std::string::npos) {
      rule.nth = parse_number(raw, verb.substr(colon + 1), 1, "bad occurrence count");
      verb = verb.substr(0, colon);
    }
    if (verb.empty()) bad_rule(raw, "empty verb");
    if (verb != "*" && !find_verb(verb)) {
      std::string known = "*";
      for (const VerbSpec& spec : verb_table()) {
        known += '|';
        known += spec.name;
      }
      bad_rule(raw, "unknown verb (want " + known + ")");
    }
    rule.verb = verb;
    // A rule scoped to a different worker is parsed (so syntax errors
    // surface everywhere) but not armed in this process.
    if (rule.worker_index < 0 || rule.worker_index == worker_index) {
      inj.rules_.push_back(rule);
    }
  }
  return inj;
}

FaultInjector FaultInjector::from_env() {
  const char* spec = std::getenv("PROTEST_FAULT_INJECT");
  if (!spec || !*spec) return FaultInjector();
  int worker_index = -1;
  if (const char* idx = std::getenv("PROTEST_WORKER_INDEX")) {
    try {
      worker_index = std::stoi(idx);
    } catch (const std::exception&) {
      worker_index = -1;
    }
  }
  FaultInjector inj = parse(spec, worker_index);
  // Tests shrink the stall so wedge detection trips in milliseconds, not
  // the 10 s default sized for interactive debugging.
  if (const char* ms = std::getenv("PROTEST_FAULT_STALL_MS"); ms && *ms) {
    try {
      inj.stall_duration_ = std::chrono::milliseconds(std::stol(ms));
    } catch (const std::exception&) {
      // keep the default on malformed values
    }
  }
  return inj;
}

bool FaultInjector::should_fire(const std::string& verb, FaultAction* action) {
  for (FaultRule& rule : rules_) {
    if (rule.fired) continue;
    if (rule.verb != "*" && rule.verb != verb) continue;
    if (++rule.seen < rule.nth) continue;
    rule.fired = true;
    *action = rule.action;
    return true;
  }
  return false;
}

}  // namespace protest
