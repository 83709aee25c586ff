// The process's first failpoint site, with no registry call before it,
// must fire when INPLACE_FAILPOINTS arms it.  tests/CMakeLists.txt runs
// this with the variable set through the ctest ENVIRONMENT property; a
// gtest binary cannot host the case, since its other tests call the
// registry first.  Exit 0: the site fired once; 1: it did not; 2: the
// environment was not set as the registration sets it.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/failpoint.hpp"

int main() {
  namespace fp = inplace::failpoint;
  const char* env = std::getenv("INPLACE_FAILPOINTS");
  if (env == nullptr || std::strcmp(env, "t.env.first") != 0) {
    std::fputs("failpoint_env_first_site: run with "
               "INPLACE_FAILPOINTS=t.env.first\n",
               stderr);
    return 2;
  }
  try {
    INPLACE_FAILPOINT("t.env.first");
  } catch (const fp::injected_fault&) {
    if (fp::fires("t.env.first") != 1) {
      std::fputs("failpoint_env_first_site: fired, but the registry "
                 "counted no fire\n",
                 stderr);
      return 1;
    }
    std::puts("failpoint_env_first_site: the first site fired");
    return 0;
  }
  std::fputs("failpoint_env_first_site: the env-armed first site did not "
             "fire\n",
             stderr);
  return 1;
}
