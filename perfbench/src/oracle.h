// oracle.h — the benchmark's own correctness check, independent of
// core::solve_residual: the normalized backward error of a solution,
// accumulated in long double, and the validity of a pivot sequence.
#pragma once

#include <vector>

#include "src/layout/matrix.h"

namespace pb {

/// Accepted backward error is at most kBerrC * n * eps (double eps); 30 is
/// the threshold LAPACK's own solver tests (xGET02) hold residuals to.
inline constexpr double kBerrC = 30.0;

/// ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf), with the residual
/// and the norms accumulated in long double.  NaN when x is not finite.
double backward_error(const calu::layout::Matrix& a,
                      const calu::layout::Matrix& x,
                      const calu::layout::Matrix& b);

/// A LAPACK absolute-row swap sequence for n rows: ipiv.size() == n and
/// i <= ipiv[i] < n for every i.
bool pivots_valid(const std::vector<int>& ipiv, int n);

/// Both checks together: the solution of A x = b is accepted.
bool solution_ok(const calu::layout::Matrix& a, const calu::layout::Matrix& x,
                 const calu::layout::Matrix& b, const std::vector<int>& ipiv);

/// Solves a small seeded system through core::gesv and shows the oracle
/// accepts it, rejects the solution with one entry perturbed, and
/// rejects the pivots with one entry made invalid.  True when all three
/// hold.
bool oracle_self_test();

/// Bitwise equality of two solutions (same shape, same bits).
bool same_bits(const calu::layout::Matrix& x, const calu::layout::Matrix& y);

/// solution_ok with a memo per input system: the first accepted solution
/// of each key is kept, and a later solution of the same system with the
/// same bits and pivots is accepted without recomputing the residual.  A
/// solution that differs in any bit is checked in full.
class Checker {
 public:
  explicit Checker(std::size_t keys) : x_(keys), ipiv_(keys), seen_(keys) {}
  bool check(std::size_t key, const calu::layout::Matrix& a,
             const calu::layout::Matrix& x, const calu::layout::Matrix& b,
             const std::vector<int>& ipiv);

 private:
  std::vector<calu::layout::Matrix> x_;
  std::vector<std::vector<int>> ipiv_;
  std::vector<bool> seen_;
};

}  // namespace pb
