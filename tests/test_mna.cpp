// MNA ladder solver for the crossbar source line: conservation, limits,
// agreement with a dense elimination and with the uniform-ladder closed form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/parasitics.hpp"
#include "device/dg_fefet.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace {

using fecim::circuit::column_node_voltages;
using fecim::circuit::ir_attenuation_factor;
using fecim::circuit::sense_column_current;

/// Node voltages by Gaussian elimination on the full n x n nodal matrix, in
/// extended precision: an independent reference for the tridiagonal solve.
/// The matrix is diagonally dominant, so no pivoting is needed.
std::vector<double> dense_ladder_voltages(const std::vector<double>& currents,
                                          double v_drive, double r_segment) {
  using real = long double;
  const std::size_t n = currents.size();
  const real g_wire = 1.0L / r_segment;
  std::vector<std::vector<real>> a(n, std::vector<real>(n + 1, 0.0L));
  for (std::size_t k = 0; k < n; ++k) {
    const real g_cell = currents[k] / static_cast<real>(v_drive);
    a[k][k] = g_cell + g_wire + (k > 0 ? g_wire : 0.0L);
    if (k > 0) a[k][k - 1] = -g_wire;
    if (k + 1 < n) a[k][k + 1] = -g_wire;
    a[k][n] = g_cell * v_drive;
  }
  for (std::size_t col = 0; col < n; ++col) {
    for (std::size_t r = col + 1; r < n; ++r) {
      const real factor = a[r][col] / a[col][col];
      for (std::size_t c = col; c <= n; ++c) a[r][c] -= factor * a[col][c];
    }
  }
  std::vector<double> v(n);
  for (std::size_t k = n; k-- > 0;) {
    real sum = a[k][n];
    for (std::size_t c = k + 1; c < n; ++c) sum -= a[k][c] * v[c];
    v[k] = static_cast<double>(sum / a[k][k]);
  }
  return v;
}

/// Worst-case attenuation of a uniform ladder (n cells of conductance g,
/// segment resistance r) in closed form: with a = g r and
/// sinh(theta / 2) = sqrt(a) / 2,
///   sinh(n theta) / (2 n sinh(theta / 2) cosh((n + 1/2) theta)).
/// Overflows near n = 2^20 at the engine's operating point.
double uniform_ladder_attenuation(std::size_t n, double g, double r) {
  const double half_sinh = 0.5 * std::sqrt(g * r);
  const double theta = 2.0 * std::asinh(half_sinh);
  const double cells = static_cast<double>(n);
  return std::sinh(cells * theta) /
         (2.0 * cells * half_sinh * std::cosh((cells + 0.5) * theta));
}

/// The analog engine's operating point: default wire and device on-current.
struct EnginePoint {
  double r_segment;
  double i_on;
  double v_drive;
};

EnginePoint engine_point() {
  const fecim::circuit::WireTech wire{};
  const fecim::device::DgFefetParams device{};
  return {wire.r_per_um * wire.cell_pitch_um,
          fecim::device::DgFefet::on_current(device, device.vbg_max),
          device.read_vdl};
}

double relative_error(double value, double reference) {
  return std::fabs(value - reference) / std::fabs(reference);
}

TEST(Mna, ZeroResistanceReturnsExactSum) {
  const std::vector<double> currents{1e-6, 2e-6, 3e-6};
  EXPECT_DOUBLE_EQ(sense_column_current(currents, 1.0, 0.0), 6e-6);
}

TEST(Mna, SingleCellClosedForm) {
  // One cell with conductance g through one wire segment r to ground:
  // sensed = g*V / (1 + g*r).
  const double g = 1e-5;
  const double r = 100.0;
  const std::vector<double> currents{g * 1.0};
  const double sensed = sense_column_current(currents, 1.0, r);
  EXPECT_NEAR(sensed, g / (1.0 + g * r), 1e-12);
}

TEST(Mna, SensedBoundedByIdealSum) {
  const std::vector<double> currents(64, 1e-6);
  const double sensed = sense_column_current(currents, 1.0, 2.0);
  EXPECT_LT(sensed, 64e-6);
  EXPECT_GT(sensed, 0.0);
}

TEST(Mna, MonotoneInWireResistance) {
  const std::vector<double> currents(32, 1e-6);
  double previous = 1.0;
  for (const double r : {0.1, 1.0, 10.0, 100.0, 1000.0}) {
    const double sensed = sense_column_current(currents, 1.0, r);
    EXPECT_LT(sensed, previous);
    previous = sensed;
  }
}

TEST(Mna, FarCellsAttenuateMore) {
  // Node voltages rise toward the far end: the far cell sees more IR drop.
  const std::vector<double> currents(16, 1e-5);
  const auto voltages = column_node_voltages(currents, 1.0, 50.0);
  for (std::size_t k = 1; k < voltages.size(); ++k)
    EXPECT_LT(voltages[k], voltages[k - 1]);  // node 0 = far end, highest V
}

TEST(Mna, CurrentConservation) {
  // Sensed current equals the sum of effective per-cell currents
  // g_k (V - v_k).
  const std::vector<double> currents{2e-6, 5e-6, 1e-6, 4e-6};
  const double v_drive = 1.0;
  const double r = 200.0;
  const auto voltages = column_node_voltages(currents, v_drive, r);
  double injected = 0.0;
  for (std::size_t k = 0; k < currents.size(); ++k) {
    const double g = currents[k] / v_drive;
    injected += g * (v_drive - voltages[k]);
  }
  EXPECT_NEAR(injected, sense_column_current(currents, v_drive, r), 1e-12);
}

TEST(Mna, InactiveCellsContributeNothing) {
  const std::vector<double> with_zeros{0.0, 1e-6, 0.0, 1e-6};
  const std::vector<double> compact{1e-6, 1e-6};
  // Same active cells in the same relative positions toward the sense end.
  const double a = sense_column_current(with_zeros, 1.0, 1e-3);
  const double b = sense_column_current(compact, 1.0, 1e-3);
  EXPECT_NEAR(a, b, 1e-12);  // negligible wire resistance: both ~ 2e-6
}

TEST(Mna, TinyCurrentsStayAccurate) {
  // Regression for the relative-tolerance fix: nA-scale columns.
  const std::vector<double> currents(8, 1e-9);
  const double sensed = sense_column_current(currents, 1.0, 1.0);
  EXPECT_NEAR(sensed, 8e-9, 1e-12);
}

TEST(Mna, RandomLaddersMatchDenseElimination) {
  // Non-uniform currents with ~1/4 inactive cells, wire resistances spanning
  // light to heavy IR drop.
  fecim::util::Rng rng(12);
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<double> currents(n);
    for (auto& i : currents) i = rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.0, 2e-5);
    const double v_drive = rng.uniform(0.5, 1.5);
    const double r = std::pow(10.0, rng.uniform(-1.0, 3.0));
    const auto voltages = column_node_voltages(currents, v_drive, r);
    const auto reference = dense_ladder_voltages(currents, v_drive, r);
    const double scale = *std::max_element(reference.begin(), reference.end());
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_LE(std::fabs(voltages[k] - reference[k]), 1e-12 * scale)
          << "n=" << n << " k=" << k;
    if (scale > 0.0) {
      EXPECT_LE(relative_error(sense_column_current(currents, v_drive, r),
                               reference.back() / r),
                1e-12)
          << "n=" << n;
    }
  }
}

TEST(Mna, UniformLadderMatchesClosedForm) {
  const auto point = engine_point();
  const double g = point.i_on / point.v_drive;
  EXPECT_LE(relative_error(ir_attenuation_factor(1, point.r_segment,
                                                 point.i_on, point.v_drive),
                           1.0 / (1.0 + g * point.r_segment)),
            1e-12);
  for (const std::size_t n : {1u, 64u, 1024u, 10000u}) {
    const double att =
        ir_attenuation_factor(n, point.r_segment, point.i_on, point.v_drive);
    EXPECT_LE(relative_error(att, uniform_ladder_attenuation(
                                      n, g, point.r_segment)),
              1e-10)
        << "n=" << n;
  }
}

TEST(Mna, MillionRowLadder) {
  // 2^20 rows: beyond any iterative solver's budget, and beyond the closed
  // form's range.
  constexpr std::size_t kRows = std::size_t{1} << 20;
  const auto point = engine_point();
  const double att =
      ir_attenuation_factor(kRows, point.r_segment, point.i_on, point.v_drive);
  EXPECT_GT(att, 0.0);
  EXPECT_LE(att, 1.0);

  const std::vector<double> currents(kRows, point.i_on);
  const auto voltages =
      column_node_voltages(currents, point.v_drive, point.r_segment);
  double injected = 0.0;
  for (std::size_t k = 0; k < kRows; ++k)
    injected += currents[k] / point.v_drive * (point.v_drive - voltages[k]);
  const double sensed = voltages.back() / point.r_segment;
  EXPECT_LE(relative_error(injected, sensed), 1e-9);
}

TEST(Mna, RejectsNonFiniteCellCurrents) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {kInf, kNan}) {
    const std::vector<double> currents{1e-6, bad, 1e-6};
    EXPECT_THROW(column_node_voltages(currents, 1.0, 1.0),
                 fecim::contract_error);
    EXPECT_THROW(sense_column_current(currents, 1.0, 1.0),
                 fecim::contract_error);
  }
}

TEST(Mna, RejectsNonFiniteDriveVoltage) {
  const std::vector<double> currents{1e-6, 1e-6};
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(column_node_voltages(currents, bad, 1.0),
                 fecim::contract_error);
}

TEST(Mna, RejectsNonFiniteSegmentResistance) {
  const std::vector<double> currents{1e-6, 1e-6};
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(column_node_voltages(currents, 1.0, bad),
                 fecim::contract_error);
    EXPECT_THROW(sense_column_current(currents, 1.0, bad),
                 fecim::contract_error);
  }
}

}  // namespace
