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
// therefore builds its bit-plane column cache PER BAND -- segment classes,
// presence and class weights are band-local, and cached row indices are
// band-relative -- so the engines can sweep tiles independently.  The
// all-zero TileShape default keeps one band covering every row, which is
// byte-for-byte the historical monolithic cache.
//
// Because the array is immutable once programmed, programming time also
// builds the cache: for every (band, logical column, bit, plane) the
// conducting cells are laid out contiguously as (band-relative row,
// multiplier) entries, and segments with identical content within a
// (band, column) are deduped into shared "segment classes" so the engine
// accumulates each distinct cell list once per evaluation instead of once
// per bit.  The cache is a pure re-layout of column()/bit_multiplier(): the
// engine's sums over it are bit-identical to decoding magnitudes on the fly
// (entries stay in ascending intra-column order, and dropped
// zero-multiplier cells only ever contributed exact +0.0 terms).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crossbar/bit_slicing.hpp"
#include "crossbar/mapping.hpp"
#include "crossbar/tiling.hpp"
#include "device/dg_fefet.hpp"
#include "device/variation.hpp"
#include "util/rng.hpp"

namespace fecim::crossbar {

class ProgrammedArray {
 public:
  /// Programming samples variation in chunks of whole entries spanning at
  /// most this many bit cells, one util::parallel_for task per chunk.
  /// Arrays of one chunk program inline: a pool worker waking from idle
  /// starts tens of microseconds late at the median and milliseconds late
  /// in the tail, which would dominate a small array's sampling (PERF.md,
  /// "The setup path").
  static constexpr std::size_t kProgramChunkCells = std::size_t{1} << 16;

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
  /// stochastic readout path decodes magnitudes per cell against it so the
  /// per-bit loads are contiguous.
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
  // Bit-plane column cache (precomputed at program time, one copy per row
  // band; see file comment).
  // -------------------------------------------------------------------------

  /// One distinct conducting-cell list of a (band, column).  Entries live in
  /// cache_rows()/cache_multipliers()[begin, end), in ascending intra-column
  /// order with zero-multiplier (stuck-off) cells dropped; cached rows are
  /// relative to the band's row_begin.
  struct SegmentClass {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    /// Every multiplier is exactly 1.0f (ideal or stuck-on cells): sums of
    /// k ones equal double(k) exactly, so the engine may count instead of
    /// accumulate.
    std::uint8_t all_unit = 0;
  };

  /// Physical (bit, plane) column of a logical column within one row band:
  /// whether any programmed cell of the band stores this bit (the tile
  /// controller senses the column even when every such cell is stuck off),
  /// and which class holds its conducting cells.  `cls` indexes
  /// column_classes(band, j).
  struct SegmentRef {
    std::uint8_t cls = 0;
    std::uint8_t present = 0;
  };

  /// Segment refs of logical column j in row band `band`, indexed
  /// [bit * 2 + plane] (plane 0 = positive weights, 1 = negative).
  std::span<const SegmentRef> column_segments(std::size_t band,
                                              std::size_t j) const {
    const auto stride = static_cast<std::size_t>(couplings_.bits()) * 2;
    return {segments_.data() + (band * num_columns() + j) * stride, stride};
  }

  /// Distinct segment classes of (band, column j) (at most bits * 2).
  std::span<const SegmentClass> column_classes(std::size_t band,
                                               std::size_t j) const {
    const std::size_t slot = band * num_columns() + j;
    return {classes_.data() + class_ptr_[slot],
            class_ptr_[slot + 1] - class_ptr_[slot]};
  }

  /// Net digital weight of each class of (band, column j), aligned with
  /// column_classes(band, j):  sum over the present segments referencing
  /// the class of  plane_sign * 2^bit.  Every term is an integer, so with a
  /// deterministic readout (one shared code per class) accumulating
  /// weight * code per class is bit-identical to the per-segment
  /// shift-and-add in any association.
  std::span<const double> column_class_weights(std::size_t band,
                                               std::size_t j) const {
    const std::size_t slot = band * num_columns() + j;
    return {class_weights_.data() + class_ptr_[slot],
            class_ptr_[slot + 1] - class_ptr_[slot]};
  }

  /// Number of present (bit, plane) physical columns of logical column j in
  /// row band `band` -- the ADC conversions one polarity pass of this
  /// column costs in that band's tile.
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
  /// the distinct logical segments the deterministic shared conversion
  /// evaluates.  partial-sum merges per pass = total - union.
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
  /// (an exact integer-valued double).  The stochastic sweep iterates these
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

  std::span<const std::uint32_t> cache_rows() const noexcept { return cache_rows_; }
  std::span<const float> cache_multipliers() const noexcept {
    return cache_mults_;
  }

  /// Approximate heap footprint of the programmed array (cell multipliers,
  /// coupling copy, per-band column cache) -- the unit the array cache's
  /// byte budget accounts in (crossbar/array_cache.hpp).
  std::size_t approx_bytes() const noexcept;

 private:
  std::size_t num_columns() const noexcept { return couplings_.num_spins(); }
  void build_column_cache();

  QuantizedCouplings couplings_;
  CrossbarMapping mapping_;
  device::DgFefetParams device_params_;
  device::VariationParams variation_;
  TileShape tiles_;
  std::vector<TileBand> bands_;
  // multipliers_[entry * bits + bit]
  std::vector<float> multipliers_;
  std::size_t faulted_ = 0;

  // Column cache storage (see accessors above).  Band-major: the cache of
  // band b occupies the index range [b * n, (b + 1) * n) of the per-column
  // arrays, so a monolithic array keeps the historical single-block layout.
  std::vector<SegmentRef> segments_;  // [((band * n + j) * bits + bit) * 2 + plane]
  std::vector<SegmentClass> classes_;    // grouped per (band, column)
  std::vector<std::uint32_t> class_ptr_;  // (band, column) -> range in classes_
  std::vector<std::uint32_t> cache_rows_;  // band-relative rows
  std::vector<float> cache_mults_;
  std::vector<double> class_weights_;      // aligned with classes_
  std::vector<std::uint32_t> present_count_;  // per (band, column)
  std::vector<std::uint32_t> present_total_;  // per column, summed over bands
  std::vector<std::uint32_t> present_union_;  // per column, union over bands
  std::vector<std::uint32_t> active_bands_;   // per column
  std::vector<std::uint32_t> band_cell_ptr_;  // [j * (bands + 1) + band]
  std::vector<std::uint8_t> slot_src_;        // compacted slots, see accessor
  std::vector<double> slot_weight_;           // aligned with slot_src_
  std::vector<std::uint32_t> slot_ptr_;       // (band, column) -> slot range
};

}  // namespace fecim::crossbar
