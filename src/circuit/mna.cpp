#include "circuit/mna.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace fecim::circuit {

double sense_column_current(std::span<const double> cell_currents,
                            double v_drive, double r_segment) {
  if (r_segment <= 0.0) {
    double sum = 0.0;
    for (const double i : cell_currents) sum += i;
    return sum;
  }
  const auto voltages = column_node_voltages(cell_currents, v_drive, r_segment);
  // Sensed current = current through the final segment into the 0 V node.
  return voltages.back() / r_segment;
}

std::vector<double> column_node_voltages(std::span<const double> cell_currents,
                                         double v_drive, double r_segment) {
  FECIM_EXPECTS(!cell_currents.empty());
  FECIM_EXPECTS(std::isfinite(v_drive) && v_drive > 0.0);
  FECIM_EXPECTS(std::isfinite(r_segment) && r_segment > 0.0);
  const std::size_t n = cell_currents.size();

  // Thomas algorithm on the nodal system G v = i, whose row k reads
  //   (g_k + g_w [k > 0] + g_w) v_k - g_w v_{k-1} - g_w v_{k+1} = g_k v_drive
  // with g_w = 1 / r_segment.  Forward elimination runs from the far end
  // toward the sense amplifier.  After it, row k's pivot is g_w + q_k and
  // its right-hand side p_k, where the far part (cells 0..k) acts on node
  // k as a Norton source p_k in parallel with conductance q_k:
  //   q_k = q_{k-1} / (1 + r q_{k-1}) + g_k,
  //   p_k = p_{k-1} / (1 + r q_{k-1}) + g_k v_drive.
  // Carrying q_k instead of the pivot avoids the cancellation in
  // pivot_k = diag_k - g_w^2 / pivot_{k-1} (g_k << g_w on real wires): every
  // step adds or divides positive numbers, so no pivoting is needed and the
  // result is exact to rounding.  Back substitution (v_n = 0 at the sense
  // node) is v_k = (v_{k+1} + r p_k) / (1 + r q_k).
  std::vector<double> voltages(n);  // r p_k until back substitution
  std::vector<double> pivot(n);     // 1 + r q_k
  double q = 0.0;
  double p = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    FECIM_EXPECTS(std::isfinite(cell_currents[k]) && cell_currents[k] >= 0.0);
    const double g_cell = cell_currents[k] / v_drive;
    q += g_cell;
    p += g_cell * v_drive;
    pivot[k] = 1.0 + r_segment * q;
    voltages[k] = r_segment * p;
    q /= pivot[k];
    p /= pivot[k];
  }
  double v_next = 0.0;
  for (std::size_t k = n; k-- > 0;) {
    v_next = (v_next + voltages[k]) / pivot[k];
    voltages[k] = v_next;
  }
  return voltages;
}

}  // namespace fecim::circuit
