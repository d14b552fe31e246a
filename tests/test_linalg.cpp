// Tests for fecim::linalg -- CSR matrices.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/csr_matrix.hpp"
#include "util/rng.hpp"

namespace {

using fecim::linalg::CsrMatrix;

CsrMatrix random_spd(std::size_t n, fecim::util::Rng& rng) {
  // Diagonally dominant symmetric matrix => SPD.
  CsrMatrix::Builder builder(n, n);
  std::vector<double> diag(n, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.3)) {
        const double v = rng.uniform(-1.0, 1.0);
        builder.add_symmetric(i, j, v);
        diag[i] += std::fabs(v);
        diag[j] += std::fabs(v);
      }
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, diag[i]);
  return builder.build();
}

TEST(CsrBuilder, MergesDuplicatesAndDropsZeros) {
  CsrMatrix::Builder builder(3, 3);
  builder.add(0, 1, 2.0);
  builder.add(0, 1, 3.0);
  builder.add(1, 2, 5.0);
  builder.add(1, 2, -5.0);  // cancels to zero -> dropped
  const auto m = builder.build();
  EXPECT_EQ(m.nonzeros(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

TEST(CsrMatrix, AtReturnsZeroForMissing) {
  CsrMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  const auto m = builder.build();
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  fecim::util::Rng rng(5);
  const auto sparse = random_spd(20, rng);
  std::vector<double> x(20);
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> ys(20);
  sparse.multiply(x, ys);
  for (std::size_t r = 0; r < 20; ++r) {
    double yd = 0.0;
    for (std::size_t c = 0; c < 20; ++c) yd += sparse.at(r, c) * x[c];
    EXPECT_NEAR(ys[r], yd, 1e-12);
  }
}

TEST(CsrMatrix, VmvMatchesDense) {
  fecim::util::Rng rng(6);
  const auto sparse = random_spd(15, rng);
  std::vector<double> x(15), y(15);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);
  double dense = 0.0;
  for (std::size_t r = 0; r < 15; ++r)
    for (std::size_t c = 0; c < 15; ++c) dense += x[r] * sparse.at(r, c) * y[c];
  EXPECT_NEAR(sparse.vmv(x, y), dense, 1e-12);
}

TEST(CsrMatrix, SymmetryDetection) {
  CsrMatrix::Builder sym(3, 3);
  sym.add_symmetric(0, 2, 1.5);
  EXPECT_TRUE(sym.build().is_symmetric());

  CsrMatrix::Builder asym(3, 3);
  asym.add(0, 2, 1.5);
  EXPECT_FALSE(asym.build().is_symmetric());
}

TEST(CsrMatrix, MaxAbsValue) {
  CsrMatrix::Builder builder(2, 2);
  builder.add(0, 1, -7.0);
  builder.add(1, 0, 2.0);
  EXPECT_DOUBLE_EQ(builder.build().max_abs_value(), 7.0);
}

}  // namespace
