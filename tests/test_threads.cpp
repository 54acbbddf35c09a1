// Kernel results must not depend on the OpenMP team size. Brick lanes and
// service workers are the only parallelism; the la/ kernels run on the
// calling thread, so a process-wide omp_set_num_threads(4) — what a user's
// OMP_NUM_THREADS=4 amounts to — must neither crash them nor change a bit of
// their output. Each test runs the same call at team size 1 and 4 and
// compares bitwise. The three kernels keep per-thread `static thread_local`
// scratch, which a parallel region inside the kernel would read from worker
// threads that never sized it.

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <functional>
#include <vector>

#include "la/iterative.hpp"
#include "la/matrix.hpp"
#include "la/mixed.hpp"
#include "la/view.hpp"

namespace dftfe::la {
namespace {

/// Runs fn() with the OpenMP team size set to `nthreads`, restoring the
/// previous size afterwards (also when an assertion inside fn() fails).
template <class Fn>
void with_team_size(int nthreads, Fn fn) {
  struct Restore {
    int saved = omp_get_max_threads();
    ~Restore() { omp_set_num_threads(saved); }
  } restore;
  omp_set_num_threads(nthreads);
  fn();
}

template <class T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "entry " << i;
}

std::vector<double> fill(index_t n, double f) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = std::sin(f * (i + 1));
  return v;
}

TEST(KernelTeamSize, PcgIsBitwiseIdenticalAtOneAndFourThreads) {
  // 1D Laplacian + shift. n is above 8192, the size at which an
  // `if (n > 8192)`-gated parallel loop in the solver would fork.
  const index_t n = 12000;
  const std::vector<double> b = fill(n, 0.013);
  auto op = [n](const std::vector<double>& x, std::vector<double>& y) {
    for (index_t i = 0; i < n; ++i) {
      double s = 2.5 * x[i];
      if (i > 0) s -= x[i - 1];
      if (i + 1 < n) s -= x[i + 1];
      y[i] = s;
    }
  };
  auto prec = [n](const std::vector<double>& r, std::vector<double>& z) {
    for (index_t i = 0; i < n; ++i) z[i] = r[i] / 2.5;
  };
  auto solve = [&](int nthreads) {
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    SolveReport rep;
    with_team_size(nthreads, [&] { rep = pcg<double>(op, prec, b, x, 1e-10, 500); });
    EXPECT_TRUE(rep.converged);
    return x;
  };
  const std::vector<double> x1 = solve(1);
  const std::vector<double> x4 = solve(4);
  expect_bitwise_equal(x1, x4);
}

TEST(KernelTeamSize, LowPrecisionGemmIsBitwiseIdenticalAtOneAndFourThreads) {
  const index_t m = 37, n = 29, k = 41;  // n > 4: a column-parallel promote would fork
  const std::vector<double> A = fill(m * k, 0.21), B = fill(k * n, 0.17);
  auto run = [&](int nthreads) {
    std::vector<double> C(static_cast<std::size_t>(m * n), 0.0);
    with_team_size(nthreads, [&] {
      gemm_low_precision<double>('N', 'N', m, n, k, A.data(), m, B.data(), k, C.data(), m);
    });
    return C;
  };
  const std::vector<double> c1 = run(1);
  const std::vector<double> c4 = run(4);
  expect_bitwise_equal(c1, c4);
}

TEST(KernelTeamSize, MixedOverlapPartialIsBitwiseIdenticalAtOneAndFourThreads) {
  const index_t rows = 300, cols = 48, mp_block = 16;  // 3 x 3 block pairs
  Matrix<double> X(rows, cols);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::cos(0.07 * i);
  auto run = [&](int nthreads) {
    Matrix<double> S;
    with_team_size(nthreads,
                   [&] { overlap_hermitian_partial(cspan(X), cspan(X), S, mp_block, true); });
    // Only the upper block triangle is written; compare exactly that.
    std::vector<double> upper;
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < cols; ++i)
        if (i / mp_block <= j / mp_block) upper.push_back(S(i, j));
    return upper;
  };
  const std::vector<double> s1 = run(1);
  const std::vector<double> s4 = run(4);
  expect_bitwise_equal(s1, s4);
}

}  // namespace
}  // namespace dftfe::la
