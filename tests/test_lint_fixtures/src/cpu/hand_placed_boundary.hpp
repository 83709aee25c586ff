#pragma once
// Seeded violation: an engine pass instrumented by hand with its own
// telemetry span and boundary failpoint.  Pass boundaries belong to the
// executor's pass loop (core/executor.hpp), which also owns rollback; a
// hand-placed boundary would time and fault a pass the loop cannot undo.

namespace fixture {

template <typename T>
void engine_pass_with_own_boundary(T* a) {
  {
    INPLACE_TELEMETRY_SPAN(span_row, telemetry::stage::row_shuffle, 0, 0);  // EXPECT-LINT: stage-pairing
    a[0] = a[0];
  }
  INPLACE_FAILPOINT("fixture.after_row_shuffle");  // EXPECT-LINT: stage-pairing
}

}  // namespace fixture
