// permcheck — exhaustive static verifier for the decomposition algebra.
//
// For every (m, n) with --min <= m, n <= --max, proves by enumeration that
// the row shuffle d'_i (Eq. 24) and its inverse (Eq. 31) are mutually
// inverse bijections, that the incremental stepper and the fused
// (i, ⌊j/b⌋) index forms agree with them, that the column shuffle s'_j
// (Eq. 26) factors into p and q (Eqs. 32-34) and composes with the other
// stages to the true transposition permutation l -> l*m mod (mn - 1), and
// that the fastdiv reciprocals agree with hardware / and %.
// For every skinny shape (n <= 32 < m) it also proves the q segment split,
// the fused row passes' per-residue gather tables, and the chunked passes
// with their prefix spread (chunks of 1-3 rows).
// Exercises core/equations.hpp and its fast_divmod policy directly, and of
// the engines only the schedules and tables it proves, so the algebra is
// validated independently.
//
// Exit status: 0 all shapes verified, 1 a predicate failed, 2 bad usage.
//
//   permcheck --max 512                 # the full acceptance sweep
//   permcheck --max 16 --seed-bug       # MUST fail: planted Eq. 24 bug
//   permcheck --max 16 --seed-bug=inverse|column|fastdiv|residue|chunk

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/verify.hpp"
#include "util/parse.hpp"
#include "util/threads.hpp"

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: permcheck [--min N] [--max N]\n"
      "                 [--seed-bug[=row|inverse|column|fastdiv|residue|chunk]]\n"
      "                 [--threads T] [--quiet]\n",
      out);
}

void print_progress(std::uint64_t done, std::uint64_t total) {
  std::fprintf(stderr, "\rpermcheck: %llu / %llu shapes",
               static_cast<unsigned long long>(done),
               static_cast<unsigned long long>(total));
  if (done >= total) {
    std::fputc('\n', stderr);
  }
  std::fflush(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  inplace::verify::sweep_options opt;
  opt.max_extent = 128;
  opt.progress = print_progress;
  int threads = 0;

  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    auto value = [&]() -> const char* {
      if (k + 1 >= argc) {
        std::fprintf(stderr, "permcheck: %s needs a value\n", arg.c_str());
        usage(stderr);
        std::exit(2);
      }
      return argv[++k];
    };
    // Strict parses: "512x" or "" must be a usage error, not extent 512
    // (or 0) — an acceptance sweep over the wrong range proves nothing.
    auto u64_value = [&]() -> std::uint64_t {
      const char* text = value();
      if (const auto v = inplace::util::parse_u64(text)) {
        return *v;
      }
      std::fprintf(stderr, "permcheck: %s wants a decimal value, got '%s'\n",
                   arg.c_str(), text);
      std::exit(2);
    };
    if (arg == "--min") {
      opt.min_extent = u64_value();
    } else if (arg == "--max") {
      opt.max_extent = u64_value();
    } else if (arg == "--threads") {
      const char* text = value();
      const auto t = inplace::util::parse_int(text);
      if (!t) {
        std::fprintf(stderr, "permcheck: --threads wants an integer, got '%s'\n",
                     text);
        std::exit(2);
      }
      threads = *t;
    } else if (arg == "--quiet" || arg == "-q") {
      opt.progress = nullptr;
    } else if (arg == "--seed-bug" || arg.rfind("--seed-bug=", 0) == 0) {
      const std::string kind =
          arg == "--seed-bug" ? "row" : arg.substr(std::strlen("--seed-bug="));
      if (kind == "row") {
        opt.inject = inplace::verify::fault::row_shuffle_wrap;
      } else if (kind == "inverse") {
        opt.inject = inplace::verify::fault::inverse_branch;
      } else if (kind == "column") {
        opt.inject = inplace::verify::fault::column_shuffle_drift;
      } else if (kind == "fastdiv") {
        opt.inject = inplace::verify::fault::fastdiv_magic;
      } else if (kind == "residue") {
        opt.inject = inplace::verify::fault::residue_off_by_one;
      } else if (kind == "chunk") {
        opt.inject = inplace::verify::fault::chunk_reversal;
      } else {
        std::fprintf(stderr, "permcheck: unknown bug kind '%s'\n",
                     kind.c_str());
        usage(stderr);
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "permcheck: unknown argument '%s'\n",
                   arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (opt.min_extent < 2 || opt.max_extent < opt.min_extent) {
    std::fprintf(stderr, "permcheck: need 2 <= --min <= --max\n");
    return 2;
  }

  const inplace::util::thread_count_guard guard(threads);
  if (threads > 0 && !guard.honored()) {
    std::fprintf(stderr,
                 "permcheck: --threads %d ignored (serial build); running "
                 "on %d thread(s)\n",
                 threads, guard.active());
  }

  const inplace::verify::report rep = inplace::verify::run_sweep(opt);

  if (!rep.ok()) {
    std::fprintf(stderr,
                 "permcheck: FAILED — %llu violated predicate(s) across "
                 "the sweep:\n",
                 static_cast<unsigned long long>(rep.failures));
    for (const auto& msg : rep.messages) {
      std::fprintf(stderr, "  %s\n", msg.c_str());
    }
    if (opt.inject != inplace::verify::fault::none) {
      std::fputs("permcheck: (a --seed-bug fault was injected; failing is "
                 "the expected outcome)\n",
                 stderr);
    }
    return 1;
  }
  if (opt.inject != inplace::verify::fault::none) {
    std::fputs("permcheck: ERROR — a bug was seeded but every check "
               "passed; the verifier is vacuous\n",
               stderr);
    return 1;
  }
  std::printf(
      "permcheck: OK — %llu shapes (%llu <= m, n <= %llu), %llu predicates "
      "verified (Eqs. 23/24/26/31-36, stepper, fastdiv, skinny "
      "q segment split, skinny residue tables, skinny chunked passes)\n",
      static_cast<unsigned long long>(rep.shapes),
      static_cast<unsigned long long>(opt.min_extent),
      static_cast<unsigned long long>(opt.max_extent),
      static_cast<unsigned long long>(rep.checks));
  return 0;
}
