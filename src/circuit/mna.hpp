// Modified nodal analysis of one crossbar column: the DC operating point of
// a source line with distributed wire resistance and linearized device
// conductances.  This is the repo's stand-in for the SPECTRE DC solve.
//
// Topology (cells 0..n-1, sense amplifier at the far end holding virtual
// ground):
//
//   DL (v_drive) --g_0--+            g_k = i_k / v_drive
//                       | v_0
//   DL (v_drive) --g_1--+--r--+ ...--r--[sense @ 0 V]
//                             | v_1
//
// Each cell k would ideally contribute i_k; the finite wire resistance lifts
// the internal source-line nodes above ground, reducing the cell's effective
// drive.  The sensed current is the current through the last wire segment.
//
// The nodal conductance matrix is tridiagonal, so the ladder is solved
// directly (Thomas algorithm) in O(n), exact to rounding.
#pragma once

#include <span>
#include <vector>

namespace fecim::circuit {

/// Solve the ladder and return the sensed current at the virtual-ground
/// terminal.  `cell_currents[k]` is the ideal (zero-IR-drop) current of cell
/// k, cells ordered from the far end toward the sense amplifier;
/// `r_segment` is the wire resistance between adjacent cells (ohm).
double sense_column_current(std::span<const double> cell_currents,
                            double v_drive, double r_segment);

/// Node voltages of the same network (for tests and IR-drop inspection).
/// Inputs must be finite, with cell currents >= 0 and v_drive, r_segment > 0.
std::vector<double> column_node_voltages(std::span<const double> cell_currents,
                                         double v_drive, double r_segment);

}  // namespace fecim::circuit
