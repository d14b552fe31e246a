// The programmed DG FeFET crossbar: quantized couplings written into cells,
// with per-cell variation sampled at programming time (in parallel chunks
// for large arrays; every cell is a pure function of its index, so the
// result is the same for every thread count).
//
// The array is stored sparsely (only cells whose magnitude bit is set
// conduct, and Gset-class J matrices are sparse); per conducting bit-cell we
// keep a static current multiplier that folds the device-to-device V_TH
// offset through the subthreshold slope:
//     I_cell(vbg) = I_on(vbg) * multiplier,
//     multiplier  = exp(-dVth / (n * Vt))   (stuck-off -> 0, stuck-on -> 1).
// This first-order factorization keeps campaign-scale simulation tractable;
// tests compare it against the exact EKV evaluation on small arrays.
//
// Tile partitioning: manufacturable arrays are bounded (~1024 rows/columns
// per tile), so the logical n x (n*bits*planes) array is realized as a grid
// of physical tiles (crossbar::TilePlan).  The compute-relevant partition is
// the row-band one: each band of rows senses its own partial column currents
// which the digital periphery accumulates per logical column.  The array
// therefore builds its bit-plane column metadata PER BAND -- cell ranges,
// presence and conversion slots are band-local -- so the engines can sweep
// tiles independently.  The all-zero TileShape default keeps one band
// covering every row, which is byte-for-byte the historical monolithic
// layout.
//
// Because the array is immutable once programmed, programming time also
// derives what the readout reads: each (band, column)'s cell sub-range, its
// present (bit, plane) segments and their compacted conversion slots in the
// canonical cursor order.  The readout sweeps cells against multipliers()
// through it.
//
// Exact sums and the incremental readout (PERF.md invariant 10).  Every
// array fixes one power-of-two grid for squared multipliers
// (square_grid()): each square is rounded once onto it, fine enough that
// the squared sum of any column is exact in double.  Programming also
// tracks the float exponent range of the multipliers, and an array whose
// multiplier sums are provably exact in double -- (e_max - e_min) +
// bit_width(max cells per column) <= 29, no subnormals -- with a
// structurally symmetric, diagonal-free pattern and at most
// kIncrementalMaxSlots conversion slots also stores each entry's mirror
// across the diagonal (supports_incremental_readout()).  With exact sums,
// any subset of a segment's cells can be read as a total minus its
// complement, in any order, which is what lets AnalogCrossbarEngine keep
// per-run bank sums and update them on accepted flips instead of
// re-sweeping cells.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crossbar/bit_slicing.hpp"
#include "crossbar/mapping.hpp"
#include "crossbar/tiling.hpp"
#include "device/dg_fefet.hpp"
#include "device/variation.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fecim::crossbar {

/// m^2 in units of a power-of-two grid whose reciprocal is `inv_grid`,
/// rounded to the nearest integer (ties to even): m^2 scaled onto the grid
/// stays below 2^52 by the grid's choice, where adding and removing 2^52
/// rounds exactly.
inline double grid_units(double m, double inv_grid) noexcept {
  constexpr double kRound = 0x1p52;
  return (m * m * inv_grid + kRound) - kRound;
}

/// m^2 rounded to the nearest multiple of `grid` = 1 / inv_grid.  The one
/// definition of a cell's squared multiplier behind every readout sigma:
/// the engine's sweep, its incremental state and the reference kernel all
/// use it with the array's square_grid().  Sums of these values are exact,
/// so a sum of grid_units() scaled by the grid once is the same double.
inline double grid_square(double m, double grid, double inv_grid) noexcept {
  return grid_units(m, inv_grid) * grid;
}

class ProgrammedArray {
 public:
  /// Programming samples variation in chunks of whole entries spanning at
  /// most this many bit cells, one util::parallel_for task per chunk.
  /// Arrays of one chunk program inline: a pool worker waking from idle
  /// starts tens of microseconds late at the median and milliseconds late
  /// in the tail, which would dominate a small array's sampling (PERF.md,
  /// "The setup path").
  static constexpr std::size_t kProgramChunkCells = std::size_t{1} << 16;

  /// Size rule of the incremental readout: arrays with more conversion
  /// slots (present (band, column, bit, plane) segments) keep the per-cell
  /// sweep and store no mirror offsets.  Each live run holds 16-32 B per
  /// slot, and past this size the scattered per-slot state reads cost more
  /// than the sweep saves (measured crossover in PERF.md invariant 10).
  static constexpr std::size_t kIncrementalMaxSlots = std::size_t{1} << 14;

  ProgrammedArray(const QuantizedCouplings& couplings,
                  const CrossbarMapping& mapping,
                  const device::DgFefetParams& device_params,
                  const device::VariationParams& variation, std::uint64_t seed,
                  const TileShape& tiles = {});

  const CrossbarMapping& mapping() const noexcept { return mapping_; }
  const QuantizedCouplings& couplings() const noexcept { return couplings_; }
  const device::DgFefetParams& device_params() const noexcept {
    return device_params_;
  }
  const device::VariationParams& variation_params() const noexcept {
    return variation_;
  }

  /// Full-drive on-current at the given back-gate voltage (no variation).
  double on_current(double vbg) const noexcept;

  /// Sparse column view: entry k couples logical column `j` to row
  /// `rows()[k]` with signed magnitude `magnitudes()[k]`; the per-bit
  /// current multipliers for that entry start at `bit_multipliers(k)`.
  struct ColumnView {
    std::span<const std::uint32_t> rows;
    std::span<const std::int32_t> magnitudes;
    std::size_t first_entry;  ///< global entry index of rows[0]
  };
  ColumnView column(std::size_t j) const;

  /// Current multiplier of bit `bit` of global entry `entry`.
  double bit_multiplier(std::size_t entry, int bit) const;

  /// Raw per-(entry, bit) multiplier storage, entry-major
  /// (multipliers()[entry * bits + bit], stuck-off cells stored as 0).  The
  /// readout sweep decodes magnitudes per cell against it so the per-bit
  /// loads are contiguous.
  std::span<const float> multipliers() const noexcept { return multipliers_; }

  /// Number of programmed (nonzero-magnitude) logical cells.
  std::size_t num_programmed_entries() const noexcept {
    return couplings_.nonzeros();
  }

  /// Count of faulted bit-cells (stuck-off or stuck-on) among programmed
  /// cells: only bits a cell's magnitude stores count, since absent bits
  /// never conduct -- reported by robustness benches.
  std::size_t num_faulted_bit_cells() const noexcept { return faulted_; }

  // -------------------------------------------------------------------------
  // Tile geometry.
  // -------------------------------------------------------------------------

  /// Tile request the array was programmed under (all-zero = monolithic).
  const TileShape& tile_shape() const noexcept { return tiles_; }
  /// Row bands of the tile grid, in ascending row order; always >= 1.
  std::span<const TileBand> bands() const noexcept { return bands_; }
  std::size_t num_bands() const noexcept { return bands_.size(); }

  /// Tile plan of this array for the given wire technology (per-tile and
  /// monolithic IR attenuation, grid geometry).  Row-band geometry is the
  /// one the execution path uses; plan_row_bands is the shared splitter.
  TilePlan plan(const circuit::WireTech& wire) const;

  /// Range of column j's cells that fall into row band `band`, as indices
  /// into the column() view (cells are stored in ascending row order, so
  /// each band owns one contiguous sub-range).
  struct BandCellRange {
    std::uint32_t begin = 0;  ///< first in-band cell index within column j
    std::uint32_t end = 0;    ///< one past the last in-band cell index
  };
  BandCellRange column_band_cells(std::size_t band, std::size_t j) const {
    const auto* ptr = band_cell_ptr_.data() + j * (bands_.size() + 1);
    return {ptr[band], ptr[band + 1]};
  }

  // -------------------------------------------------------------------------
  // Sweep metadata (precomputed at program time, one copy per row band --
  // see file comment).
  // -------------------------------------------------------------------------

  /// Number of present (bit, plane) physical columns of logical column j in
  /// row band `band` -- the ADC conversions one polarity pass of this
  /// column costs in that band's tile.  A segment is present when any
  /// programmed cell of the band stores its bit with its sign: the tile
  /// controller senses the column even when every such cell is stuck off.
  std::uint32_t column_present_segments(std::size_t band,
                                        std::size_t j) const {
    return present_count_[band * num_columns() + j];
  }

  /// Present (band, segment) pairs of column j summed over all bands: the
  /// total per-polarity-pass ADC conversions the tiled walk performs.  With
  /// one band this equals column_present_segments(0, j).
  std::uint32_t column_total_present_segments(std::size_t j) const {
    return present_total_[j];
  }

  /// Present (bit, plane) segments of column j in the union over bands --
  /// the distinct logical segments the digital periphery accumulates
  /// per-tile results into.  partial-sum merges per pass = total - union.
  std::uint32_t column_union_present_segments(std::size_t j) const {
    return present_union_[j];
  }

  /// Row bands in which column j has at least one present segment -- the
  /// tiles activated when the column is driven.
  std::uint32_t column_active_bands(std::size_t j) const {
    return active_bands_[j];
  }

  /// Compacted conversion-slot metadata of (band, column j): entry i
  /// describes the i-th present segment in the canonical slot order
  /// (ascending bit, + plane before -), which is also the order the noise
  /// cursor walks.  column_slot_src()[i] is the segment's offset into a
  /// packed [plane][bit] accumulator block (plane * bits + bit), and
  /// column_slot_weights()[i] its signed digital weight plane_sign * 2^bit
  /// (an exact integer-valued double).  The readout sweep iterates these
  /// dense arrays instead of skipping absent segments branch-wise, which is
  /// what lets its conversion stage vectorize.
  std::span<const std::uint8_t> column_slot_src(std::size_t band,
                                                std::size_t j) const {
    const std::size_t slot = band * num_columns() + j;
    return {slot_src_.data() + slot_ptr_[slot],
            slot_ptr_[slot + 1] - slot_ptr_[slot]};
  }
  std::span<const double> column_slot_weights(std::size_t band,
                                              std::size_t j) const {
    const std::size_t slot = band * num_columns() + j;
    return {slot_weight_.data() + slot_ptr_[slot],
            slot_ptr_[slot + 1] - slot_ptr_[slot]};
  }
  /// Index of (band, column j)'s first slot in the array-wide compacted
  /// slot order (band-major, then column, then cursor order), for per-slot
  /// state kept outside the array.
  std::uint32_t column_slot_begin(std::size_t band, std::size_t j) const {
    return slot_ptr_[band * num_columns() + j];
  }
  /// Conversion slots of the whole array, summed over (band, column).
  std::size_t num_slots() const noexcept { return slot_src_.size(); }

  // -------------------------------------------------------------------------
  // Exact sums and the incremental readout (see file comment).
  // -------------------------------------------------------------------------

  /// Power-of-two grid every squared multiplier is rounded onto
  /// (grid_square), 2^(2 (e_max + 1) + bit_width(max cells per column) -
  /// 53): the finest grid on which every column's squared sum stays exact.
  double square_grid() const noexcept { return square_grid_; }
  /// grid_square(m, square_grid(), 1 / square_grid()).
  double squared_multiplier(double m) const noexcept {
    return grid_square(m, square_grid_, inv_square_grid_);
  }

  /// Whether an engine may keep incremental bank sums over the array: the
  /// multiplier sums are provably exact, the pattern is symmetric without
  /// diagonal cells, and the array has at most kIncrementalMaxSlots slots.
  /// Only such arrays store mirror_offsets().
  bool supports_incremental_readout() const noexcept {
    return !mirror_.empty();
  }
  /// Where each entry's mirror cell sits: entry (row r, column j) maps to
  /// the cell (row j, column r), which the symmetric pattern guarantees, at
  /// index mirror_offsets()[entry] of column r's cells (column() order).
  /// Lets an accepted flip of row f reach its cell in every column j
  /// through column f's entries, without a search.  Two bytes per entry: a
  /// column of an array under the size rule has at most
  /// kIncrementalMaxSlots cells.  Empty unless supports_incremental_readout().
  std::span<const std::uint16_t> mirror_offsets() const noexcept {
    return mirror_;
  }

  /// Approximate heap footprint of the programmed array (cell multipliers,
  /// coupling copy, per-band sweep metadata and, when built, the mirror
  /// offsets) -- the unit the array cache's byte budget accounts in
  /// (crossbar/array_cache.hpp).
  std::size_t approx_bytes() const noexcept;

 private:
  std::size_t num_columns() const noexcept { return couplings_.num_spins(); }
  /// `exponent_lo`/`exponent_hi`: biased float exponent range of the
  /// nonzero multipliers (lo = 0 flags a subnormal; lo > hi: none).
  void build_column_cache(std::uint32_t exponent_lo, std::uint32_t exponent_hi);
  /// Fills mirror_, or leaves it empty when the pattern is not symmetric
  /// without diagonal cells.
  void build_mirror();

  QuantizedCouplings couplings_;
  CrossbarMapping mapping_;
  device::DgFefetParams device_params_;
  device::VariationParams variation_;
  TileShape tiles_;
  std::vector<TileBand> bands_;
  // multipliers_[entry * bits + bit]
  std::vector<float> multipliers_;
  std::size_t faulted_ = 0;

  // Column metadata storage (see accessors above).  Band-major: band b
  // occupies the index range [b * n, (b + 1) * n) of the per-(band, column)
  // arrays, so a monolithic array keeps the historical single-block layout.
  std::vector<std::uint32_t> present_count_;  // per (band, column)
  std::vector<std::uint32_t> present_total_;  // per column, summed over bands
  std::vector<std::uint32_t> present_union_;  // per column, union over bands
  std::vector<std::uint32_t> active_bands_;   // per column
  std::vector<std::uint32_t> band_cell_ptr_;  // [j * (bands + 1) + band]
  std::vector<std::uint8_t> slot_src_;        // compacted slots, see accessor
  std::vector<double> slot_weight_;           // aligned with slot_src_
  std::vector<std::uint32_t> slot_ptr_;       // (band, column) -> slot range
  double square_grid_ = 1.0;
  double inv_square_grid_ = 1.0;
  std::vector<std::uint16_t> mirror_;  // per entry, see mirror_offsets()
};

}  // namespace fecim::crossbar
