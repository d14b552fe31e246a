// Compressed-sparse-row matrix for coupling matrices J.
//
// Gset-class Max-Cut instances are sparse (average degree ~4-50), so the
// annealer's inner loops run over CSR rows.  The builder accepts arbitrary
// (row, col, value) triplets, merges duplicates by summation, and can
// symmetrize on demand.  Encoders that already know each entry's final
// value (problems::maxcut_to_ising) skip the builder's global sort and
// hand finished arrays to the checking constructor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fecim::linalg {

class CsrMatrix {
 public:
  struct Entry {
    std::uint32_t col;
    double value;
  };

  CsrMatrix() = default;

  /// Adopt finished CSR arrays, checked in O(rows + nnz) against the form
  /// Builder::build() produces: `row_ptr` has rows + 1 non-decreasing
  /// offsets from 0 to nnz, each row's columns are strictly increasing and
  /// below `cols`, and no stored value is zero.
  CsrMatrix(std::size_t cols, std::vector<std::size_t> row_ptr,
            std::vector<std::uint32_t> col_idx, std::vector<double> values);

  std::size_t rows() const noexcept {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nonzeros() const noexcept { return values_.size(); }

  /// Entries of one row as parallel spans.
  std::span<const std::uint32_t> row_cols(std::size_t r) const;
  std::span<const double> row_values(std::size_t r) const;

  /// Value at (r, c); 0 when the entry is absent.  O(log degree).
  double at(std::size_t r, std::size_t c) const;

  /// y = A x (dense vectors).
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// xᵀ A y.
  double vmv(std::span<const double> x, std::span<const double> y) const;

  /// True when the sparsity pattern and values are symmetric within tol:
  /// no stored entry (r, c) has |at(c, r) - value| > tol, an absent mirror
  /// reading as 0 (a NaN difference never fails).  O(rows + nnz).
  bool is_symmetric(double tol = 0.0) const;

  /// Largest |value|; 0 for an empty matrix.
  double max_abs_value() const noexcept;

  class Builder {
   public:
    Builder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

    /// Accumulate value at (r, c); duplicates sum.
    void add(std::size_t r, std::size_t c, double value);
    /// Accumulate value at (r, c) and (c, r).
    void add_symmetric(std::size_t r, std::size_t c, double value);

    CsrMatrix build();

   private:
    struct Triplet {
      std::uint32_t row;
      std::uint32_t col;
      double value;
    };
    std::size_t rows_;
    std::size_t cols_;
    std::vector<Triplet> triplets_;
  };

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace fecim::linalg
