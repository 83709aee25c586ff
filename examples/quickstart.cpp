// Quickstart: the public API in five minutes, plus live reproductions of
// the paper's Figure 1 (C2R/R2C permutations) and Figure 2 (the three
// steps of the decomposed C2R transpose).
//
//   $ ./examples/quickstart

#include <cstdio>
#include <vector>

#include "core/tensor.hpp"
#include "core/transpose.hpp"
#include "util/matrix.hpp"
#include "util/timer.hpp"

namespace {

void print_matrix(const char* title, const std::vector<int>& buf,
                  std::size_t m, std::size_t n) {
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < m; ++i) {
    std::printf("  ");
    for (std::size_t j = 0; j < n; ++j) {
      std::printf("%4d", buf[i * n + j]);
    }
    std::printf("\n");
  }
}

void figure1() {
  std::printf("=== Figure 1: C2R and R2C transpositions, m = 3, n = 8 ===\n");
  auto a = inplace::util::iota_matrix<int>(3, 8);
  print_matrix("3x8 row-major input:", a, 3, 8);

  // R2C is the left-to-right arrow of Figure 1.  As a raw permutation it
  // regroups the linearized array so that element 16 at (2,0) lands at
  // (1,5), exactly as worked in Section 2.
  auto r2c_view = a;
  inplace::r2c(r2c_view.data(), 3, 8);
  print_matrix("after R2C (viewed as 3x8):", r2c_view, 3, 8);

  // And C2R inverts it.
  inplace::c2r(r2c_view.data(), 3, 8);
  std::printf("C2R(R2C(A)) == A: %s\n\n", r2c_view == a ? "yes" : "NO");
}

void figure2() {
  std::printf("=== Figure 2: the three C2R steps on a 4x8 matrix ===\n");
  // The figure starts from the matrix A[i][j] = i + 4j.
  const std::size_t m = 4;
  const std::size_t n = 8;
  std::vector<int> a(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a[i * n + j] = static_cast<int>(i + 4 * j);
    }
  }
  print_matrix("input:", a, m, n);

  const inplace::transpose_math<inplace::fast_divmod> mm(m, n);
  // Step 1 — column rotate (Eq. 23): column j rotates by floor(j/b).
  std::vector<int> s1(m * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      s1[i * n + j] = a[((i + mm.prerotate_offset(j)) % m) * n + j];
    }
  }
  print_matrix("after column rotate:", s1, m, n);

  // Step 2 — row shuffle (Eq. 24): scatter within each row.
  std::vector<int> s2(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s2[i * n + mm.d_prime(i, j)] = s1[i * n + j];
    }
  }
  print_matrix("after row shuffle:", s2, m, n);

  // Step 3 — column shuffle (Eq. 26): gather within each column.
  std::vector<int> s3(m * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      s3[i * n + j] = s2[mm.s_prime(i, j) * n + j];
    }
  }
  print_matrix("after column shuffle (done):", s3, m, n);

  // The same result through the public API.
  auto api = a;
  inplace::c2r(api.data(), m, n);
  std::printf("library c2r() matches the manual steps: %s\n\n",
              api == s3 ? "yes" : "NO");
}

void api_tour() {
  std::printf("=== Library tour ===\n");
  const std::size_t m = 1234;
  const std::size_t n = 789;
  auto a = inplace::util::iota_matrix<double>(m, n);
  const auto src = a;

  inplace::util::timer clk;
  inplace::transpose(a.data(), m, n);  // row-major in-place transpose
  const double secs = clk.seconds();

  const auto want = inplace::util::reference_transpose(
      std::span<const double>(src), m, n);
  std::printf("transpose %zux%zu doubles in place: %s, %.2f GB/s\n", m, n,
              a == want ? "correct" : "WRONG",
              inplace::util::transpose_throughput_gbs(m, n, sizeof(double),
                                                      secs));

  // Forcing a direction:
  inplace::options opts;
  opts.alg = inplace::options::algorithm::r2c;
  inplace::transpose(a.data(), n, m, inplace::storage_order::row_major,
                     opts);
  std::printf("transpose back with forced R2C: %s\n",
              a == src ? "correct" : "WRONG");

  // Column-major arrays work through the same entry point:
  auto c = inplace::util::iota_matrix<float>(64, 48);
  inplace::transpose(c.data(), 64, 48, inplace::storage_order::col_major);
  std::printf("column-major transpose: done (see tests for verification)\n");
}

void tensor_tour() {
  std::printf("\n=== 3-D extension: axis permutation ===\n");
  // A [2][3][4] tensor; move the last axis to the front ({2,0,1}).
  const std::size_t d0 = 2;
  const std::size_t d1 = 3;
  const std::size_t d2 = 4;
  std::vector<int> t(d0 * d1 * d2);
  for (std::size_t l = 0; l < t.size(); ++l) {
    t[l] = static_cast<int>(l);
  }
  inplace::permute3(t.data(), d0, d1, d2, {2, 0, 1});
  std::printf("[2][3][4] -> {2,0,1} -> [4][2][3]; slice [0][*][*]:\n");
  print_matrix("", std::vector<int>(t.begin(), t.begin() + 6), d0, d1);
  std::printf("(every element of slice k came from input positions with "
              "i2 == k)\n");
}

}  // namespace

int main() {
  figure1();
  figure2();
  api_tour();
  tensor_tour();
  return 0;
}
