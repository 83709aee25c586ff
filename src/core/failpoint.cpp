#include "core/failpoint.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>

#include "util/annotated_mutex.hpp"
#include "util/parse.hpp"

namespace inplace::failpoint {

namespace {

struct entry {
  mode m = mode::fault;
  std::uint64_t skip = 0;   ///< traversals to pass through before firing
  std::uint64_t count = 0;  ///< fires allowed after skip (0 = unlimited)
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  bool from_env = false;
};

struct registry {
  util::annotated_mutex mu;
  std::unordered_map<std::string, entry> map INPLACE_GUARDED_BY(mu);
  /// Retired names keep their counters after disarm so tests can assert
  /// hits()/fires() once a scoped_trigger has gone out of scope.
  std::unordered_map<std::string, entry> retired INPLACE_GUARDED_BY(mu);
};

/// Added to armed_count until the first registry use has parsed
/// INPLACE_FAILPOINTS.  A site reached before any registry call then
/// finds the gate open, and trigger() parses the environment before it
/// looks the name up, so an env-armed first site fires.
constexpr std::uint64_t env_unread = std::uint64_t{1} << 63;

/// Armed entries, plus env_unread before the environment is parsed.
std::atomic<std::uint64_t> armed_count{env_unread};

registry& reg() {
  static registry* r = [] {
    auto* fresh = new registry();  // leaked: triggers may fire at exit
    return fresh;
  }();
  return *r;
}

mode parse_mode(const char* text, bool& ok) {
  ok = true;
  if (std::strcmp(text, "fault") == 0) {
    return mode::fault;
  }
  if (std::strcmp(text, "oom") == 0) {
    return mode::oom;
  }
  if (std::strcmp(text, "count") == 0) {
    return mode::count;
  }
  ok = false;
  return mode::fault;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const auto v = util::parse_u64(text);
  if (!v) {
    return false;
  }
  out = *v;
  return true;
}

/// Parses one INPLACE_FAILPOINTS entry "name[:mode[:skip[:count]]]" and
/// arms it (caller holds r.mu — enforced by the analysis).  Malformed
/// entries warn and are skipped — injection must never silently change
/// meaning.
void arm_env_entry_locked(registry& r, const std::string& spec)
    INPLACE_REQUIRES(r.mu) {
  std::string fields[4];
  std::size_t field = 0;
  for (const char c : spec) {
    if (c == ':' && field < 3) {
      ++field;
    } else {
      fields[field] += c;
    }
  }
  const std::string& name = fields[0];
  entry e;
  e.from_env = true;
  bool ok = !name.empty();
  if (ok && !fields[1].empty()) {
    e.m = parse_mode(fields[1].c_str(), ok);
  }
  if (ok && !fields[2].empty()) {
    ok = parse_u64(fields[2], e.skip);
  }
  if (ok && !fields[3].empty()) {
    ok = parse_u64(fields[3], e.count);
  }
  if (!ok) {
    std::fprintf(stderr,
                 "inplace: ignoring malformed INPLACE_FAILPOINTS entry '%s' "
                 "(want name[:fault|oom|count[:skip[:count]]])\n",
                 spec.c_str());
    return;
  }
  if (r.map.insert_or_assign(name, e).second) {
    armed_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void reload_env_locked(registry& r) INPLACE_REQUIRES(r.mu) {
  // Drop previous env-armed triggers (programmatic ones stay).
  for (auto it = r.map.begin(); it != r.map.end();) {
    if (it->second.from_env) {
      r.retired[it->first] = it->second;
      it = r.map.erase(it);
      armed_count.fetch_sub(1, std::memory_order_relaxed);
    } else {
      ++it;
    }
  }
  const char* env = std::getenv("INPLACE_FAILPOINTS");
  if (env == nullptr || *env == '\0') {
    return;
  }
  std::string spec;
  for (const char* p = env;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!spec.empty()) {
        arm_env_entry_locked(r, spec);
      }
      spec.clear();
      if (*p == '\0') {
        break;
      }
    } else {
      spec += *p;
    }
  }
}

registry& env_initialized_reg() {
  static registry& r = [&]() -> registry& {
    registry& inner = reg();
    util::mutex_guard lock(inner.mu);
    reload_env_locked(inner);
    armed_count.fetch_sub(env_unread, std::memory_order_relaxed);
    return inner;
  }();
  return r;
}

}  // namespace

void arm(const char* name, mode m, std::uint64_t skip, std::uint64_t count) {
  registry& r = env_initialized_reg();
  util::mutex_guard lock(r.mu);
  entry e;
  e.m = m;
  e.skip = skip;
  e.count = count;
  if (r.map.insert_or_assign(name, e).second) {
    armed_count.fetch_add(1, std::memory_order_relaxed);
  }
}

bool disarm(const char* name) {
  registry& r = env_initialized_reg();
  util::mutex_guard lock(r.mu);
  const auto it = r.map.find(name);
  if (it == r.map.end()) {
    return false;
  }
  r.retired[it->first] = it->second;
  r.map.erase(it);
  armed_count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void disarm_all() {
  registry& r = env_initialized_reg();
  util::mutex_guard lock(r.mu);
  for (const auto& [name, e] : r.map) {
    r.retired[name] = e;
  }
  armed_count.fetch_sub(r.map.size(), std::memory_order_relaxed);
  r.map.clear();
}

std::uint64_t hits(const char* name) {
  registry& r = env_initialized_reg();
  util::mutex_guard lock(r.mu);
  if (const auto it = r.map.find(name); it != r.map.end()) {
    return it->second.hits;
  }
  if (const auto it = r.retired.find(name); it != r.retired.end()) {
    return it->second.hits;
  }
  return 0;
}

std::uint64_t fires(const char* name) {
  registry& r = env_initialized_reg();
  util::mutex_guard lock(r.mu);
  if (const auto it = r.map.find(name); it != r.map.end()) {
    return it->second.fires;
  }
  if (const auto it = r.retired.find(name); it != r.retired.end()) {
    return it->second.fires;
  }
  return 0;
}

bool any_armed() noexcept {
  return armed_count.load(std::memory_order_relaxed) != 0;
}

void trigger(const char* name) {
  mode fire_mode = mode::count;
  bool fire = false;
  {
    registry& r = env_initialized_reg();
    util::mutex_guard lock(r.mu);
    const auto it = r.map.find(name);
    if (it == r.map.end()) {
      return;
    }
    entry& e = it->second;
    ++e.hits;
    if (e.hits > e.skip && (e.count == 0 || e.fires < e.count)) {
      ++e.fires;
      fire_mode = e.m;
      fire = e.m != mode::count;
    }
  }
  // Throw outside the registry lock: the unwound frames may themselves
  // traverse (and query) failpoints.
  if (!fire) {
    return;
  }
  if (fire_mode == mode::oom) {
    throw std::bad_alloc();
  }
  throw injected_fault(std::string("inplace: injected fault at failpoint '") +
                       name + "'");
}

void reload_env() {
  registry& r = env_initialized_reg();
  util::mutex_guard lock(r.mu);
  reload_env_locked(r);
}

}  // namespace inplace::failpoint
