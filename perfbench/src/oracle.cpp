#include "perfbench/src/oracle.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "perfbench/src/common.h"
#include "src/core/solve.h"

namespace pb {

double backward_error(const calu::layout::Matrix& a,
                      const calu::layout::Matrix& x,
                      const calu::layout::Matrix& b) {
  const int n = a.rows();
  long double na = 0.0L, nx = 0.0L, nb = 0.0L, nr = 0.0L;
  std::vector<long double> r(static_cast<std::size_t>(n));
  std::vector<long double> rowsum(static_cast<std::size_t>(n), 0.0L);
  for (int k = 0; k < x.cols(); ++k) {
    for (int i = 0; i < n; ++i) r[i] = b(i, k);
    for (int j = 0; j < a.cols(); ++j) {
      const long double xj = x(j, k);
      if (!std::isfinite(static_cast<double>(xj)))
        return std::numeric_limits<double>::quiet_NaN();
      nx = std::max(nx, std::fabs(xj));
      const double* col = a.data() + static_cast<std::size_t>(j) * a.ld();
      for (int i = 0; i < n; ++i) r[i] -= static_cast<long double>(col[i]) * xj;
    }
    for (int i = 0; i < n; ++i) {
      nr = std::max(nr, std::fabs(r[i]));
      nb = std::max(nb, std::fabs(static_cast<long double>(b(i, k))));
    }
  }
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < n; ++i) rowsum[i] += std::fabs(static_cast<long double>(a(i, j)));
  for (int i = 0; i < n; ++i) na = std::max(na, rowsum[i]);
  const long double denom = na * nx + nb;
  return static_cast<double>(denom > 0.0L ? nr / denom : nr);
}

bool pivots_valid(const std::vector<int>& ipiv, int n) {
  if (static_cast<int>(ipiv.size()) != n) return false;
  for (int i = 0; i < n; ++i)
    if (ipiv[i] < i || ipiv[i] >= n) return false;
  return true;
}

bool solution_ok(const calu::layout::Matrix& a, const calu::layout::Matrix& x,
                 const calu::layout::Matrix& b, const std::vector<int>& ipiv) {
  const int n = a.rows();
  if (x.rows() != n || x.cols() != b.cols() || !pivots_valid(ipiv, n))
    return false;
  const double bound = kBerrC * n * std::numeric_limits<double>::epsilon();
  return backward_error(a, x, b) <= bound;  // false for NaN
}

bool oracle_self_test() {
  Rng rng(0x5e1f7e57);
  const int n = 64;
  const calu::layout::Matrix a = random_matrix(n, n, rng);
  const calu::layout::Matrix b = random_matrix(n, 1, rng);
  calu::core::Options opt;
  opt.b = 16;
  opt.threads = 1;
  opt.pin_threads = false;  // leave the caller's affinity mask untouched
  const calu::core::SolveResult res = calu::core::gesv(a, b, opt);
  const std::vector<int>& ipiv = res.factorization.ipiv;
  const bool accepts = solution_ok(a, res.x, b, ipiv);

  calu::layout::Matrix perturbed = res.x;
  perturbed(n / 2, 0) *= 1.0 + 1e-9;
  const bool rejects_x = !solution_ok(a, perturbed, b, ipiv);

  std::vector<int> bad = ipiv;
  bad[n - 2] = n - 3;  // swaps with a row already eliminated
  const bool rejects_pivot = !solution_ok(a, res.x, b, bad);
  return accepts && rejects_x && rejects_pivot;
}

bool same_bits(const calu::layout::Matrix& x, const calu::layout::Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  const std::size_t bytes =
      static_cast<std::size_t>(x.rows()) * x.cols() * sizeof(double);
  return std::memcmp(x.data(), y.data(), bytes) == 0;
}

bool Checker::check(std::size_t key, const calu::layout::Matrix& a,
                    const calu::layout::Matrix& x,
                    const calu::layout::Matrix& b,
                    const std::vector<int>& ipiv) {
  if (seen_[key] && ipiv == ipiv_[key] && same_bits(x, x_[key])) return true;
  if (!solution_ok(a, x, b, ipiv)) {
    std::fprintf(stderr,
                 "perfbench: oracle rejects system %zu (n=%d): backward "
                 "error %.3e, bound %.3e, pivots %s\n",
                 key, a.rows(), backward_error(a, x, b),
                 kBerrC * a.rows() * std::numeric_limits<double>::epsilon(),
                 pivots_valid(ipiv, a.rows()) ? "valid" : "invalid");
    return false;
  }
  x_[key] = x;
  ipiv_[key] = ipiv;
  seen_[key] = true;
  return true;
}

}  // namespace pb
