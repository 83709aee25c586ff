#pragma once
// Deterministic fault injection for the failure-semantics tests.
//
// A *failpoint* is a named site in the library — an allocation, a stage
// boundary, a worker-pool transition — where a test can ask the library
// to fail on purpose.  Two gates keep the sites off the hot paths:
//
//   * Compile-time gate: the INPLACE_FAILPOINT(name) macro expands to
//     nothing unless the translation unit defines INPLACE_FAILPOINTS.
//     The default library build carries zero injection branches on the
//     hot paths; the failure-semantics test binary (and core/context.cpp,
//     whose control-plane paths are cold) opt in per TU.
//   * Runtime gate: a process-global armed counter.  An instrumented
//     site costs one relaxed atomic load and a branch while nothing is
//     armed; only armed processes pay the registry lookup.
//
// Sites fire by throwing: mode::fault throws injected_fault, mode::oom
// throws std::bad_alloc (exercising the same catch paths a real
// allocation failure takes), mode::count only counts traversals.  A
// trigger is armed programmatically (arm()/scoped_trigger) or from the
// environment: INPLACE_FAILPOINTS="name[:mode[:skip[:count]]],..." —
// e.g. INPLACE_FAILPOINTS="exec.alloc.full:oom" forces the workspace
// ladder off its first rung process-wide.  The registry itself always
// compiles into the library so instrumented and plain TUs share one
// trigger table.

#include <cstdint>
#include <new>
#include <stdexcept>

namespace inplace::failpoint {

/// Thrown by a failpoint armed with mode::fault.  Deliberately not
/// derived from inplace::error: tests distinguish injected failures from
/// genuine argument validation.
class injected_fault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What an armed failpoint does when its trigger condition is met.
enum class mode : std::uint8_t {
  fault,  ///< throw injected_fault
  oom,    ///< throw std::bad_alloc (simulated allocation failure)
  count,  ///< never throw; only count traversals (coverage probes)
};

/// Arms `name`: after `skip` traversals, the next `count` traversals
/// fire (count == 0 means every one).  Re-arming an armed name resets
/// its counters.
void arm(const char* name, mode m = mode::fault, std::uint64_t skip = 0,
         std::uint64_t count = 0);

/// Disarms `name`; returns false if it was not armed.
bool disarm(const char* name);

/// Disarms everything (test teardown).
void disarm_all();

/// Traversals of `name` observed while armed (0 if never armed).
[[nodiscard]] std::uint64_t hits(const char* name);

/// Times `name` actually fired (threw) while armed.
[[nodiscard]] std::uint64_t fires(const char* name);

/// True when at least one failpoint is armed, or when no registry call
/// has parsed INPLACE_FAILPOINTS yet (the first site to run then parses
/// it in trigger(), so an env-armed site fires even as the process's
/// first).  This is the whole runtime cost of an instrumented site in
/// the common case.
[[nodiscard]] bool any_armed() noexcept;

/// Evaluates the failpoint `name`: counts the traversal and throws per
/// the armed mode.  Call sites use INPLACE_FAILPOINT, not this.
void trigger(const char* name);

/// Re-reads the INPLACE_FAILPOINTS environment variable, replacing all
/// env-armed triggers (programmatic arms survive only if re-issued).
/// The first registry use parses the environment automatically; tests
/// that setenv() after startup call this to apply the change.
void reload_env();

/// RAII arm/disarm for tests.
class scoped_trigger {
 public:
  explicit scoped_trigger(const char* name, mode m = mode::fault,
                          std::uint64_t skip = 0, std::uint64_t count = 0)
      : name_(name) {
    arm(name, m, skip, count);
  }
  ~scoped_trigger() { disarm(name_); }
  scoped_trigger(const scoped_trigger&) = delete;
  scoped_trigger& operator=(const scoped_trigger&) = delete;

 private:
  const char* name_;
};

}  // namespace inplace::failpoint

// The call-site macro.  Per-TU opt-in (unlike telemetry spans, which
// are always compiled): without INPLACE_FAILPOINTS the site vanishes, so
// no environment variable can arm faults in a user's process; with it
// the site costs one relaxed atomic load until something is armed.
#if defined(INPLACE_FAILPOINTS)
#define INPLACE_FAILPOINT(name)                    \
  do {                                             \
    if (::inplace::failpoint::any_armed()) {       \
      ::inplace::failpoint::trigger(name);         \
    }                                              \
  } while (false)
#else
#define INPLACE_FAILPOINT(name) \
  do {                          \
  } while (false)
#endif
