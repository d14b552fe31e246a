// Analog DG FeFET crossbar E_inc engine (paper Sec. 3.3, Fig. 6(d)).
//
// For each flipped logical column j (driven at DL with sigma_c_j) the engine
// senses the k bit-slice columns in both weight planes across the two
// row-polarity passes; each sensed current is
//
//   I_col = I_on(V_BG) * att * sum_{active cells} multiplier_cell + noise,
//
// digitized by the shared SAR ADC, shifted by its bit weight, and
// accumulated with the pass polarity sign.  Because every conducting cell's
// current carries the factor I_on(V_BG), the product with the fractional
// annealing factor f(T) happens *in situ*; the digital back end only scales
// by the fixed calibration constant  scale * LSB / I_on(V_BG_max).
//
// Tiled execution: the array realizes its logical rows as a grid of
// physical tiles (ProgrammedArray::bands()); the engine sweeps the row
// bands, senses each band's partial column currents with that band's own
// IR-drop attenuation, and accumulates the per-tile results digitally into
// per-logical-column sums.  Every evaluation performs one genuine ADC
// conversion (one keyed draw, one quantization, per-tile calibration) per
// (tile, present physical column) in the canonical cursor order, so results
// are a pure function of (run seed, tile shape).  A noise-free
// configuration (no read noise, no ADC noise) runs the same conversions
// with sigma = 0: every draw adds +-0, so its results ignore the run seed.
//
// Hot path: one read path serves evaluate() and evaluate_columns().  Each
// (flip, band) unit writes its conversion lanes -- sums and squared sums,
// [pass][slot] -- into one call-wide lane buffer in cursor order (on a
// tiled array already scaled by its band's conversion factors); one kernel
// call converts the read's lanes into ADC codes; and each unit's code sum
// weighs its codes by its slots' digital weights, signed by its column
// polarity, exactly (PERF.md invariant 7).  The lane sums come from one of
// two sources:
//  * the sweep: the unit's cells against the entry-major multipliers,
//    bank-selected per cell (every array, and every caller that hands
//    evaluate() arbitrary spin vectors);
//  * the incremental readout (opt-in, enable_incremental_readout()): per
//    run, the total and the +1-bank multiplier and squared sums of every
//    present (band, column, slot), built from the spins of the first
//    evaluation; on_flips_applied moves accepted rows between banks.  The
//    -1 bank is the total minus the +1 bank, after the other flipped rows'
//    cells leave their bank.  A move adds a cell's bit row to the slots of
//    its plane without a branch per slot.  Only arrays whose sums are
//    provably exact support it
//    (ProgrammedArray::supports_incremental_readout()), so both sources
//    produce the same bits (PERF.md invariant 10).
// Neither decodes magnitudes per call, and both track flip membership
// through a reusable per-engine workspace bitmask.  evaluate_columns()
// (simulated bifurcation's full-field read) assembles blocks of whole
// columns, converts each block's lanes in one kernel call, and merges the
// ledger once per call.
// Readout noise comes from counter-keyed streams (ReadoutNoise) indexed by
// the canonical conversion order.  A run takes its draws from a window of
// consecutive draws, one ziggurat fill at a time, refilled only when
// exhausted and dropped by begin_run().  The lanes are in cursor order, so
// a read converts against its draws in place in the window (the blocks of
// columns end where the window does), and only a read that straddles the
// window's end copies them.  Each draw is a pure function of its index, so
// where evaluations start and end inside the window is unobservable.  No
// sequential RNG anywhere in the sensing chain.  All of it is
// floating-point-identical to the direct per-cell evaluation;
// tests/test_perf_equivalence.cpp, tests/test_tiled_engine.cpp and
// tests/test_sweep_differential.cpp pin that equivalence against
// crossbar/reference_kernels.hpp.
#pragma once

#include <memory>
#include <vector>

#include "circuit/parasitics.hpp"
#include "circuit/sar_adc.hpp"
#include "crossbar/engine.hpp"
#include "crossbar/programmed_array.hpp"

namespace fecim::crossbar {

struct AnalogEngineConfig {
  circuit::SarAdcParams adc{};
  /// ADC full scale expressed in full-drive cell currents at V_BG max; the
  /// absolute full_scale_current is derived at construction.
  double full_scale_cells = 64.0;
  bool model_ir_drop = true;
  circuit::WireTech wire{};
  /// Precomputed per-row-band IR-drop attenuations (index = band) for this
  /// (array, wire) pair.  Used when the size matches the array's band
  /// count; otherwise (empty: not solved yet) solved at construction, one
  /// MNA solve per distinct band height -- at most two under the balanced
  /// split.  Campaign annealers solve them once and stamp them here so
  /// per-run engine instances are cheap -- the array is immutable, so the
  /// factors cannot change between runs.
  std::vector<double> cached_band_ir_attenuation;
};

class AnalogCrossbarEngine final : public EincEngine {
 public:
  AnalogCrossbarEngine(std::shared_ptr<const ProgrammedArray> array,
                       const AnalogEngineConfig& config = {});

  /// Re-keys the readout noise streams to `run_seed`, resets the
  /// conversion counter and drops the draw window.  Without a call the
  /// engine behaves as run 0.  The incremental state, when enabled, is
  /// rebuilt by the next readout.
  void begin_run(std::uint64_t run_seed) override;

  EincResult evaluate(std::span<const ising::Spin> spins,
                      const ising::FlipSet& flips,
                      const AnnealSignal& signal) override;

  /// The per-column loop of EincEngine::evaluate_columns, batched: blocks
  /// of whole columns that end where the draw window does (or one column),
  /// each (column, band) unit read from the bank sums when they are live,
  /// else from the sweep, one kernel call per block, and one ledger merge
  /// per call.  Builds the bank sums from `spins` when they are enabled
  /// but not yet built.  Bit-identical to the loop, noise cursor included.
  void evaluate_columns(std::span<const ising::Spin> spins,
                        const AnnealSignal& signal, std::span<double> raw_vmv,
                        CostLedger& ledger) override;

  /// Moves every flipped row's cells to its new bank in the incremental
  /// state: O(degree * bits) per flipped row, each move a branch-free add
  /// of the cell's bit row, with the next cells prefetched.  No-op without
  /// the state.
  /// Rejects an out-of-range or repeated index before moving any cell, so
  /// a contract_error leaves the state as it was.
  void on_flips_applied(std::span<const ising::Spin> spins_after,
                        const ising::FlipSet& flips) override;

  /// Opt into the incremental readout.  The caller takes on the
  /// local-field cache's protocol (engine.hpp): every applied flip set is
  /// reported through on_flips_applied(), and a wholesale spin rewrite
  /// needs begin_run() before the next evaluate().  The state is built from
  /// the spins of the next evaluate().  A no-op for arrays without
  /// supports_incremental_readout(), which keep the sweep.  (Here and
  /// below, evaluate_columns() counts as an evaluate().)
  void enable_incremental_readout();
  /// Whether evaluations read the incremental state.
  bool incremental_readout() const noexcept { return incremental_; }
  /// The live incremental state; empty before the first evaluate() after
  /// enable_incremental_readout() or begin_run().  (band, column j) owns
  /// the block at stride * column_slot_begin(band, j) -- stride 4 with
  /// read noise, else 2 -- holding, per present slot in cursor order, the
  /// +1-bank multiplier sums, then the totals, then (with read noise) the
  /// +1-bank and total squared sums.  Coherence tests compare it with a
  /// fresh engine's.
  std::span<const double> incremental_state() const noexcept {
    return state_live_ ? std::span<const double>(state_)
                       : std::span<const double>();
  }

  std::size_t num_spins() const noexcept override {
    return array_->mapping().num_spins();
  }

  const circuit::SarAdc& adc() const noexcept { return adc_; }
  /// Per-row-band (tile) IR-drop attenuations; band_attenuations()[0] is
  /// the nominal (full-height) tile, which on a monolithic array is the
  /// whole column line.
  std::span<const double> band_attenuations() const noexcept {
    return band_attenuation_;
  }
  /// Nominal per-tile attenuation (the full-height band).
  double tile_attenuation() const noexcept { return band_attenuation_[0]; }
  /// Current readout noise state (streams + conversion cursor); the
  /// equivalence tests use it to check cursor lockstep with the reference.
  const ReadoutNoise& readout_noise() const noexcept { return noise_; }

  /// Consecutive keyed draws one window fill covers; evaluate_columns()
  /// ends its blocks of columns where the window ends.
  static constexpr std::size_t kDrawWindow = 1024;

 private:
  /// Reusable per-engine scratch so evaluate() performs no heap allocation
  /// once its buffers have grown to the call's size.  `band_acc` holds each
  /// band's code sum.
  struct EvalWorkspace {
    std::vector<std::uint8_t> flip_mask;
    std::vector<double> band_acc;
    /// Per-flip invariants hoisted out of the (flip, band) units: the
    /// column view (ProgrammedArray::column is out of line, so calling it
    /// once per flip instead of once per unit matters on tiled grids) and
    /// the column-polarity sign q.
    std::vector<ProgrammedArray::ColumnView> flip_view;
    std::vector<double> flip_q;
    /// [a * |F| + b]: index of row flips[b] among column flips[a]'s cells
    /// (column() order), or kNoCell; filled on the bank sums only.
    std::vector<std::uint32_t> pair_cell;
  };
  static constexpr std::uint32_t kNoCell = ~std::uint32_t{0};

  /// The call-wide lane buffer: four arrays of `capacity` lanes each, in
  /// cursor order -- sums, squared sums, keyed draws (copied here only when
  /// a read straddles the window's end) and the conversion kernel's codes.
  struct LaneBuffer {
    std::vector<double> storage;
    std::size_t capacity = 0;
    double* sum() noexcept { return storage.data(); }
    double* sq() noexcept { return storage.data() + capacity; }
    double* z() noexcept { return storage.data() + 2 * capacity; }
    double* code() noexcept { return storage.data() + 3 * capacity; }
    void reserve(std::size_t lanes);
  };

  /// The sweep's dense per-unit bank sums, packed
  /// [bank * 2bits + plane * bits + bit] (4 * bits <= 64 lanes), so its
  /// bank-selecting per-cell inner bit loop is branch-free and unit-stride.
  struct alignas(64) SweepScratch {
    double nsum[64];
    double nsq[64];
  };

  /// Per-call invariants of the (flip, band) units: the signal's on-current,
  /// the noise terms every conversion uses and the array's bit width and
  /// square grid.
  struct UnitInvariants {
    double i_on = 0.0;
    double read_noise_rel = 0.0;
    double sigma_adc = 0.0;
    double adc_variance = 0.0;
    bool track_sq = false;
    std::size_t bits = 0;
    double square_grid = 1.0;
    double inv_square_grid = 1.0;
  };
  UnitInvariants unit_invariants(const AnnealSignal& signal);

  /// Validates `flips` and marks them in the workspace flip mask; throws,
  /// leaving the mask clear, on an index >= num_spins() or, when
  /// `distinct` is set, on a repeated index.
  void mark_flips(const ising::FlipSet& flips, bool distinct);

  /// Writes the 2 * present sums and squared sums of the (column
  /// flips[fi], band) unit from lane `pos` on, [pass][slot]: from the bank
  /// sums when they are live (the other flipped rows with a cell in the
  /// unit leave their bank), else from the sweep over the column's cells
  /// skipping the rows marked in the flip mask.  On a tiled array it then
  /// scales them by its band's conversion factors.  `view` is column
  /// flips[fi], `src` its non-empty slot list in `band`.  The one lane
  /// assembly of evaluate() and evaluate_columns().
  void assemble_unit(const UnitInvariants& inv, const ising::Spin* spins,
                     std::span<const std::uint32_t> flips, std::size_t fi,
                     std::size_t band, const ProgrammedArray::ColumnView& view,
                     std::span<const std::uint8_t> src, std::size_t pos);

  /// Fills the workspace's pair_cell table for the bank sums: one
  /// branch-free count per unordered pair of flips finds one cell, and the
  /// array's mirror offsets give its mirror; prefetches both cells'
  /// multiplier rows.  Needs the workspace's flip views.
  void locate_pair_cells(std::span<const std::uint32_t> flips,
                         std::size_t bits);

  /// Converts the lane buffer's first `count` lanes against the run's next
  /// `count` keyed draws in one kernel call into its codes, and advances
  /// the conversion cursor.
  void convert(const UnitInvariants& inv, std::size_t count);

  /// Fills the window with the keyed draws from the cursor on.
  void refill_window();
  /// The next `count` keyed draws of the run, in place in the window when
  /// it holds them all (refilled first when exhausted), else copied to the
  /// lane buffer's draws; advances the conversion cursor.
  const double* window_draws(std::size_t count);

  void build_incremental_state(std::span<const ising::Spin> spins);

  /// Adds `s` times a `plane` cell's multiplier row `m` (and its grid
  /// squares unless `sq` is null) to the slot lanes `sum` of the (band,
  /// column) whose `present` slots start at compacted slot `base`, of
  /// which `plus_slots` lie in the + plane.  The one bank-sum move of
  /// on_flips_applied() and the in-unit subtraction.
  void move_plane(double* sum, double* sq, std::size_t base,
                  std::size_t present, std::size_t plus_slots,
                  std::uint32_t plane, const float* m, std::size_t bits,
                  double s, double grid, double inv_grid) const;

  std::shared_ptr<const ProgrammedArray> array_;
  AnalogEngineConfig config_;
  circuit::SarAdc adc_;
  std::vector<double> band_attenuation_;  ///< per row band (tile)
  /// scale * LSB / (I_on(vbg_max) * band_attenuation): the per-tile digital
  /// calibration, precomputed so the per-eval merge avoids a divide per
  /// band.
  std::vector<double> band_to_einc_;
  double i_on_max_ = 0.0;
  // on_current() evaluates the EKV transistor model; the DAC-quantized V_BG
  // schedule repeats levels for long stretches, so memoize the last level.
  double cached_vbg_ = -1.0;
  double cached_i_on_ = 0.0;
  ReadoutNoise noise_;
  /// The run's draw window: keyed draws [window_end_ - kDrawWindow,
  /// window_end_) once filled; the cursor lies inside it or at its end,
  /// where the next read refills it.  begin_run() drops it.
  std::vector<double> window_;
  std::uint64_t window_end_ = 0;
  EvalWorkspace workspace_;
  LaneBuffer lanes_;
  /// 2 * column_total_present_segments(j) at its largest over columns: the
  /// lanes one flipped column can need.
  std::size_t max_column_lanes_ = 0;
  SweepScratch scratch_;
  /// Incremental readout: enabled on an array that supports it, and
  /// whether state_ matches the spins the caller holds.
  bool incremental_ = false;
  bool state_live_ = false;
  std::size_t state_stride_ = 2;  ///< doubles per slot, see incremental_state()
  std::vector<double> state_;
  /// The moves' view of the slots, built by enable_incremental_readout():
  /// per (band, column), band-major, how many of its slots lie in the +
  /// plane; per slot, in the array's compacted slot order, each (band,
  /// column)'s slot indices regrouped by plane (+ plane first, each in
  /// cursor order) and their bits.  A move walks only its cell's plane, so
  /// no slot needs a plane test.
  std::vector<std::uint8_t> plane_slots_;
  std::vector<std::uint8_t> move_slot_;
  std::vector<std::uint8_t> move_bit_;
};

}  // namespace fecim::crossbar
