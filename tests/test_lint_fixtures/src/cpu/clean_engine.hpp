#pragma once
// Negative-space fixture: an engine pass body as the executor lowers it —
// no span, no failpoint — with an audited allocation carrying a reasoned
// suppression.  Must produce ZERO findings — this is the false positive
// tripwire for the selftest.

namespace fixture {

template <typename T>
void engine_pass_clean(T* a, std::vector<T>& ws) {
  // inplace-lint: allow-next(raw-alloc): fixture stand-in for the
  // audited workspace::reserve acquisition funnel
  ws.reserve(16);
  a[0] = a[0];
}

}  // namespace fixture
