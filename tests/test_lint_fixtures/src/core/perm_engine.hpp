// Seeded violation: this stand-in for the general-permutation engine carries the entry and alloc failpoints but NOT the stage-boundary one ("perm.exec.stage").  EXPECT-LINT: failpoint-coverage
//
// The PermFailure suite and the sanitizer drivers' env-armed fault pass
// arm "perm.exec.stage" by name to prove every executor's rollback; an
// engine edit that drops it must be a lint finding, not a silently
// vacuous fault matrix.

#define INPLACE_FAILPOINT(name) fixture_failpoint(name)

namespace fixture {

void fixture_failpoint(const char*);

void permuter_ctor() { INPLACE_FAILPOINT("perm.exec.alloc"); }

void permuter_execute() {
  INPLACE_FAILPOINT("perm.exec.begin");
  // Every stage loop below used to traverse "perm.exec.stage" — its
  // absence is the seeded violation this fixture exists for.
}

// A hand-written rollback: the executor's stage loop owns the one
// catch-and-restore, so a front end catching everything to undo its own
// stages is the second seeded violation here.
template <typename T>
void run_reversals(T* data, std::size_t k, std::size_t n) {
  std::size_t completed = 0;
  try {
    std::reverse(data, data + k);
    ++completed;
    std::reverse(data + k, data + n);
  } catch (...) {  // EXPECT-LINT: stage-pairing
    if (completed > 0) {
      std::reverse(data, data + k);
    }
    throw;
  }
}

}  // namespace fixture
