// Multi-tile crossbar planning.
//
// The paper evaluates a single logical crossbar even at 3000 spins
// (3000 x 24000 bit-cells); manufacturable arrays are bounded (typically
// <= 1024 rows/columns per tile because of line parasitics and sense
// margin).  TilePlan partitions the logical array onto a grid of physical
// tiles, reports per-tile parasitics, and scales the peripheral overhead so
// campaign costs stay honest for large instances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/parasitics.hpp"
#include "crossbar/mapping.hpp"

namespace fecim::crossbar {

struct TileConstraints {
  std::size_t max_rows = 1024;
  std::size_t max_columns = 1024;
  circuit::WireTech wire{};
};

/// User-facing tile request plumbed from the campaign/CLI layer down to the
/// programmed array: maximum physical rows/columns per tile, 0 = unbounded.
/// The all-zero default therefore reproduces the historical monolithic
/// execution exactly, for every instance size.
struct TileShape {
  std::size_t rows = 0;
  std::size_t cols = 0;

  bool monolithic() const noexcept { return rows == 0 && cols == 0; }
};

/// One horizontal band of the tile grid: the physical rows
/// [row_begin, row_end) a tile stack owns.
struct TileBand {
  std::uint32_t row_begin = 0;
  std::uint32_t row_end = 0;

  std::uint32_t rows() const noexcept { return row_end - row_begin; }
};

/// Balanced partition of `logical_rows` rows into bands of at most
/// `max_rows` (0 = unbounded -> one band).  Shared by plan_tiles and
/// ProgrammedArray so the planner and the execution path can never disagree
/// about band boundaries.
std::vector<TileBand> plan_row_bands(std::size_t logical_rows,
                                     std::size_t max_rows);

struct TilePlan {
  std::size_t logical_rows = 0;
  std::size_t logical_columns = 0;
  std::size_t tile_rows = 0;      ///< rows per tile (<= max_rows)
  std::size_t tile_columns = 0;   ///< columns per tile (<= max_columns)
  std::size_t grid_rows = 0;      ///< tiles stacked vertically
  std::size_t grid_columns = 0;   ///< tiles side by side
  std::size_t num_tiles = 0;

  /// Per-tile source-line IR attenuation (rows per tile, worst case).
  double tile_ir_attenuation = 1.0;
  /// Attenuation if the same logical array were built as one monolithic
  /// tile -- quantifies what tiling buys.
  double monolithic_ir_attenuation = 1.0;

  /// Partial results that must be digitally accumulated per logical column
  /// (= tiles stacked along the row dimension).
  std::size_t partial_sums_per_column() const noexcept { return grid_rows; }
};

/// Plan the tiling of a mapped crossbar under the given constraints.
/// `max_cell_current` is the full-drive cell current used for the IR-drop
/// estimates.
TilePlan plan_tiles(const CrossbarMapping& mapping,
                    const TileConstraints& constraints,
                    double max_cell_current, double drive_voltage);

/// Same plan from a TileShape request (0 = unbounded on either axis).
TilePlan plan_tiles(const CrossbarMapping& mapping, const TileShape& shape,
                    double max_cell_current, double drive_voltage,
                    const circuit::WireTech& wire = {});

}  // namespace fecim::crossbar
