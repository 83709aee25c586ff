// Seeded violations: this stand-in for the tensor engine header carries the chunk-scratch failpoint but NOT the pass-boundary one ("tensor.pass.begin").  EXPECT-LINT: failpoint-coverage
//
// It also reproduces the pre-funnel scratch idiom the engine shipped
// with — sized std::vector declarations on the execution path, which
// allocate in the constructor and so dodge the member-call patterns
// (.resize/.reserve/...).  The raw-alloc rule must catch the
// declaration form itself.
#pragma once

#define INPLACE_FAILPOINT(name) fixture_failpoint(name)

namespace fixture {

void fixture_failpoint(const char*);

template <typename T>
void chunk_pass(T* a, std::size_t d0, std::size_t d1, std::size_t chunk) {
  INPLACE_FAILPOINT("tensor.chunk.alloc");
  std::vector<std::uint8_t> visited(d0 * d1);  // EXPECT-LINT: raw-alloc
  std::vector<T> tmp(chunk);  // EXPECT-LINT: raw-alloc
  // The pass-boundary failpoint ("tensor.pass.begin") that should fire
  // before the walk moves anything is gone — the seeded violation this
  // fixture exists for.
  (void)a;
  (void)visited;
  (void)tmp;
}

// The pre-stage-loop slab rollback: it caught everything and re-ran the
// completed slabs inverted by hand, outside the executor's stage loop.
template <typename T, typename Slab>
void run_slabs(T* a, std::size_t batch, std::size_t slab, Slab run) {
  std::size_t k = 0;
  try {
    for (; k < batch; ++k) {
      run(a + k * slab, /*forward=*/true);
    }
  } catch (...) {  // EXPECT-LINT: stage-pairing
    while (k-- > 0) {
      run(a + k * slab, /*forward=*/false);
    }
    throw;
  }
}

}  // namespace fixture
