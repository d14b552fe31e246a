#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace fecim::linalg {

CsrMatrix::CsrMatrix(std::size_t cols, std::vector<std::size_t> row_ptr,
                     std::vector<std::uint32_t> col_idx,
                     std::vector<double> values)
    : cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  FECIM_EXPECTS(!row_ptr_.empty() && row_ptr_.front() == 0);
  FECIM_EXPECTS(row_ptr_.back() == col_idx_.size() &&
                col_idx_.size() == values_.size());
  for (std::size_t r = 0; r + 1 < row_ptr_.size(); ++r) {
    FECIM_EXPECTS(row_ptr_[r] <= row_ptr_[r + 1] &&
                  row_ptr_[r + 1] <= values_.size());
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      FECIM_EXPECTS(col_idx_[k] < cols_ && values_[k] != 0.0);
      FECIM_EXPECTS(k == row_ptr_[r] || col_idx_[k - 1] < col_idx_[k]);
    }
  }
}

std::span<const std::uint32_t> CsrMatrix::row_cols(std::size_t r) const {
  FECIM_EXPECTS(r < rows());
  return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::span<const double> CsrMatrix::row_values(std::size_t r) const {
  FECIM_EXPECTS(r < rows());
  return {values_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  FECIM_EXPECTS(r < rows() && c < cols_);
  const auto cols = row_cols(r);
  const auto vals = row_values(r);
  const auto it = std::lower_bound(cols.begin(), cols.end(),
                                   static_cast<std::uint32_t>(c));
  if (it == cols.end() || *it != c) return 0.0;
  return vals[static_cast<std::size_t>(it - cols.begin())];
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  FECIM_EXPECTS(x.size() == cols_ && y.size() == rows());
  for (std::size_t r = 0; r < rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k] * x[col_idx_[k]];
    y[r] = acc;
  }
}

double CsrMatrix::vmv(std::span<const double> x, std::span<const double> y) const {
  FECIM_EXPECTS(x.size() == rows() && y.size() == cols_);
  double acc = 0.0;
  for (std::size_t r = 0; r < rows(); ++r) {
    if (x[r] == 0.0) continue;
    double inner = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      inner += values_[k] * y[col_idx_[k]];
    acc += x[r] * inner;
  }
  return acc;
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows() != cols_) return false;
  // Walk the rows in order with one cursor per row: entry (r, c) finds its
  // mirror (c, r) at row c's cursor, after skipping row c's columns below
  // r (the mirrors of rows already walked).  Since r only grows, each
  // cursor only moves forward, and the comparison is at()'s: an absent
  // mirror reads as 0.
  std::vector<std::size_t> cursor(row_ptr_.begin(),
                                  row_ptr_.begin() + rows());
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::uint32_t c = col_idx_[k];
      std::size_t& m = cursor[c];
      while (m < row_ptr_[c + 1] && col_idx_[m] < r) ++m;
      const bool found = m < row_ptr_[c + 1] && col_idx_[m] == r;
      const double mirror = found ? values_[m] : 0.0;
      if (std::fabs(mirror - values_[k]) > tol) return false;
    }
  }
  return true;
}

double CsrMatrix::max_abs_value() const noexcept {
  double best = 0.0;
  for (const double v : values_) best = std::max(best, std::fabs(v));
  return best;
}

void CsrMatrix::Builder::add(std::size_t r, std::size_t c, double value) {
  FECIM_EXPECTS(r < rows_ && c < cols_);
  triplets_.push_back({static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(c), value});
}

void CsrMatrix::Builder::add_symmetric(std::size_t r, std::size_t c,
                                       double value) {
  add(r, c, value);
  if (r != c) add(c, r, value);
}

CsrMatrix CsrMatrix::Builder::build() {
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.cols_ = cols_;
  m.row_ptr_.assign(rows_ + 1, 0);

  // Merge duplicate coordinates by summation while copying out.
  std::size_t i = 0;
  while (i < triplets_.size()) {
    const std::uint32_t row = triplets_[i].row;
    const std::uint32_t col = triplets_[i].col;
    double sum = 0.0;
    while (i < triplets_.size() && triplets_[i].row == row &&
           triplets_[i].col == col) {
      sum += triplets_[i].value;
      ++i;
    }
    if (sum != 0.0) {
      m.col_idx_.push_back(col);
      m.values_.push_back(sum);
      ++m.row_ptr_[row + 1];
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  FECIM_ENSURES(m.row_ptr_.back() == m.values_.size());
  return m;
}

}  // namespace fecim::linalg
