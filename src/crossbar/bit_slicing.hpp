// k-bit sign-magnitude quantization of the coupling matrix J.
//
// Each element J_ij maps onto a 1 x k subarray of DG FeFET cells storing the
// binary magnitude (paper Fig. 6(d): "each element ... is mapped onto a 1xk
// subarray, with each cell storing 1 bit under k-bit quantization").
// Negative couplings occupy a separate column plane whose sensed value is
// subtracted digitally, since conductances are non-negative.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace fecim::crossbar {

class QuantizedCouplings {
 public:
  /// Quantize a symmetric coupling matrix to `bits`-bit sign-magnitude.
  /// scale = max|J| / (2^bits - 1), so the largest coupling uses the full
  /// code and J_ij ~ sign * magnitude * scale.
  QuantizedCouplings(const linalg::CsrMatrix& j, int bits);

  std::size_t num_spins() const noexcept { return n_; }
  int bits() const noexcept { return bits_; }
  double scale() const noexcept { return scale_; }
  std::uint32_t max_magnitude() const noexcept {
    return (std::uint32_t{1} << bits_) - 1;
  }
  bool has_negative() const noexcept { return has_negative_; }
  std::size_t nonzeros() const noexcept { return values_.size(); }

  /// Column-major access (identical to row-major for the symmetric pattern):
  /// the stored entries of logical column j as parallel spans.
  std::span<const std::uint32_t> column_rows(std::size_t j) const;
  std::span<const std::int32_t> column_values(std::size_t j) const;
  /// Every stored signed magnitude in column-major entry order; the index
  /// into this span is the global entry index the programmed array keys
  /// its cells by.
  std::span<const std::int32_t> magnitudes() const noexcept { return values_; }

  /// Dequantized matrix (for error analysis and the ideal engine on
  /// quantized weights).
  linalg::CsrMatrix dequantize() const;

  /// Worst-case absolute quantization error vs the source matrix.
  double max_abs_error(const linalg::CsrMatrix& original) const;

 private:
  std::size_t n_;
  int bits_;
  double scale_;
  bool has_negative_ = false;
  // CSC layout (== CSR of the symmetric pattern): signed magnitudes.
  std::vector<std::size_t> col_ptr_;
  std::vector<std::uint32_t> row_idx_;
  std::vector<std::int32_t> values_;
};

}  // namespace fecim::crossbar
