#include "ising/ising_model.hpp"

#include <limits>

#include "util/assert.hpp"

namespace fecim::ising {

IsingModel::IsingModel(linalg::CsrMatrix couplings, std::vector<double> fields,
                       double constant)
    : n_(couplings.rows()),
      j_(std::move(couplings)),
      h_(std::move(fields)),
      constant_(constant),
      ancilla_(n_) {
  FECIM_EXPECTS(j_.cols() == n_);
  FECIM_EXPECTS(h_.empty() || h_.size() == n_);
  if (h_.empty()) h_.assign(n_, 0.0);
  FECIM_EXPECTS(j_.is_symmetric(1e-12));
  // Zero diagonal: one scan over the stored entries (an absent diagonal
  // entry reads as 0).
  for (std::size_t i = 0; i < n_; ++i) {
    const auto cols = j_.row_cols(i);
    const auto vals = j_.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k)
      if (cols[k] == i) FECIM_EXPECTS(vals[k] == 0.0);
  }
}

bool IsingModel::has_fields() const noexcept {
  for (const double h : h_)
    if (h != 0.0) return true;
  return false;
}

double IsingModel::energy(std::span<const Spin> spins) const {
  FECIM_EXPECTS(spins.size() == n_);
  double quad = 0.0;
  double linear = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const auto cols = j_.row_cols(i);
    const auto vals = j_.row_values(i);
    double inner = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k)
      inner += vals[k] * static_cast<double>(spins[cols[k]]);
    quad += static_cast<double>(spins[i]) * inner;
    linear += h_[i] * static_cast<double>(spins[i]);
  }
  return quad + linear + constant_;
}

double IsingModel::incremental_vmv(std::span<const Spin> spins,
                                   std::span<const std::uint32_t> flips) const {
  FECIM_EXPECTS(spins.size() == n_);
  // sigma_c = sigma_new restricted to flipped indices (sigma_new_i = -sigma_i
  // there); sigma_r = sigma_new restricted to unflipped indices (= sigma_j).
  // The flip set is small, so mark membership in a scratch bitmap.  The
  // bitmap persists across calls (only the |F| touched bits are cleared at
  // the end) -- zero-filling n bytes per call dominated the whole evaluation
  // at campaign scale.
  thread_local std::vector<std::uint8_t> flipped;
  if (flipped.size() < n_) flipped.resize(n_, 0);
  std::size_t marked = 0;
  for (; marked < flips.size(); ++marked) {
    const auto idx = flips[marked];
    if (idx >= n_ || flipped[idx]) break;
    flipped[idx] = 1;
  }
  if (marked != flips.size()) {
    const auto idx = flips[marked];
    const bool duplicate = idx < n_ && flipped[idx] != 0;
    for (std::size_t b = 0; b < marked; ++b) flipped[flips[b]] = 0;
    FECIM_EXPECTS(idx < n_);
    FECIM_EXPECTS(!duplicate);  // duplicate flips cancel; reject them
  }

  double acc = 0.0;
  for (const auto i : flips) {
    const double sigma_c_i = -static_cast<double>(spins[i]);
    const auto cols = j_.row_cols(i);
    const auto vals = j_.row_values(i);
    double inner = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto j = cols[k];
      if (!flipped[j]) inner += vals[k] * static_cast<double>(spins[j]);
    }
    acc += sigma_c_i * inner;
  }
  for (const auto idx : flips) flipped[idx] = 0;
  return acc;
}

double IsingModel::delta_energy(std::span<const Spin> spins,
                                std::span<const std::uint32_t> flips) const {
  double field_term = 0.0;
  for (const auto i : flips) {
    FECIM_EXPECTS(i < n_);
    // sigma_new_i = -sigma_i, so h_i * (sigma_new_i - sigma_i) = -2 h_i sigma_i
    field_term += -2.0 * h_[i] * static_cast<double>(spins[i]);
  }
  return 4.0 * incremental_vmv(spins, flips) + field_term;
}

IsingModel IsingModel::with_ancilla() const {
  if (!has_fields()) {
    IsingModel copy = *this;
    return copy;
  }
  linalg::CsrMatrix::Builder builder(n_ + 1, n_ + 1);
  for (std::size_t r = 0; r < n_; ++r) {
    const auto cols = j_.row_cols(r);
    const auto vals = j_.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      builder.add(r, cols[k], vals[k]);
    // sigma^T J' sigma double-counts the ancilla pair, so store h_i / 2 on
    // each triangle: 2 * (h_i/2) * sigma_i * 1 == h_i sigma_i.
    if (h_[r] != 0.0) builder.add_symmetric(r, n_, h_[r] / 2.0);
  }
  IsingModel out(builder.build(), std::vector<double>(n_ + 1, 0.0), constant_);
  out.ancilla_ = n_;  // pinned spin lives at the last index
  return out;
}

std::pair<SpinVector, double> IsingModel::brute_force_ground_state() const {
  const std::size_t flippable = num_flippable();
  FECIM_EXPECTS(flippable <= 24);
  const std::uint64_t combos = std::uint64_t{1} << flippable;

  SpinVector best;
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::uint64_t bits = 0; bits < combos; ++bits) {
    SpinVector candidate = spins_from_bits(bits, flippable);
    if (has_ancilla()) candidate.push_back(Spin{1});
    const double e = energy(candidate);
    if (e < best_energy) {
      best_energy = e;
      best = std::move(candidate);
    }
  }
  FECIM_ENSURES(!best.empty());
  return {best, best_energy};
}

}  // namespace fecim::ising
