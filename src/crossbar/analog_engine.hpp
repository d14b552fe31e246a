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
// Hot path: each (flip, band) unit fills its conversion lanes, [pass][slot]
// in cursor order, and converts them in one contiguous kernel.  The lanes
// come from one of two sources:
//  * the sweep: the unit's cells against the entry-major multipliers,
//    bank-selected per cell (every array, and every caller that hands
//    evaluate() arbitrary spin vectors);
//  * the incremental readout (opt-in, enable_incremental_readout()): per
//    run, the total and the +1-bank multiplier and squared sums of every
//    present (band, column, slot), built from the spins of the first
//    evaluation; on_flips_applied moves accepted rows between banks.  The
//    -1 bank is the total minus the +1 bank, after the other flipped rows'
//    cells leave their bank.  Only arrays whose sums are provably exact
//    support it (ProgrammedArray::supports_incremental_readout()), so both
//    sources produce the same bits (PERF.md invariant 10).
// Neither decodes magnitudes per call, and both track flip membership
// through a reusable per-engine workspace bitmask.  evaluate_columns()
// (simulated bifurcation's full-field read) runs the same units column by
// column, one keyed fill per block of columns and one ledger merge per
// call.
// Readout noise comes from counter-keyed streams (ReadoutNoise) indexed by
// the canonical conversion order, batched per (column, tile) through the
// ziggurat sampler -- no sequential RNG anywhere in the sensing chain.  All
// of it is floating-point-identical to the direct per-cell evaluation;
// tests/test_perf_equivalence.cpp and tests/test_tiled_engine.cpp pin that
// equivalence against crossbar/reference_kernels.hpp.
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

  /// Re-keys the readout noise streams to `run_seed` and resets the
  /// conversion counter.  Without a call the engine behaves as run 0.  The
  /// incremental state, when enabled, is rebuilt by the next readout.
  void begin_run(std::uint64_t run_seed) override;

  EincResult evaluate(std::span<const ising::Spin> spins,
                      const ising::FlipSet& flips,
                      const AnnealSignal& signal) override;

  /// The per-column loop of EincEngine::evaluate_columns, batched: one
  /// keyed fill per block of columns (at most 1,024 draws, or one
  /// column's), each (column, band) unit read from the bank sums when they
  /// are live, else from the sweep, and one ledger merge per call.
  /// Builds the bank sums from `spins` when they are enabled but not yet
  /// built.  Bit-identical to the loop, noise cursor included.
  void evaluate_columns(std::span<const ising::Spin> spins,
                        const AnnealSignal& signal, std::span<double> raw_vmv,
                        CostLedger& ledger) override;

  /// Moves every flipped row's cells to its new bank in the incremental
  /// state: O(degree * bits) per flipped row.  No-op without the state.
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

 private:
  /// Reusable per-engine scratch so evaluate() performs no heap allocation.
  /// The readout works per (flip, band) unit out of the unit scratch
  /// (below); `z` holds the whole evaluation's batched per-conversion draws
  /// (one widened ziggurat fill; in evaluate_columns(), one block of
  /// columns'), `conv_base` the per-(flip, band) offsets into it in
  /// canonical cursor order, and `band_acc` accumulates each band's signed
  /// code sums for the per-tile calibration.
  struct EvalWorkspace {
    std::vector<std::uint8_t> flip_mask;
    std::vector<double> z;  ///< batched standard-normal conversion draws
    std::vector<std::uint32_t> conv_base;  ///< [flip * bands + band] -> z offset
    std::vector<double> band_acc;  ///< per-band signed code accumulators
    /// Per-flip invariants hoisted out of the (flip, band) sweep units:
    /// the column view (ProgrammedArray::column is out of line, so calling
    /// it once per flip instead of once per unit matters on tiled grids)
    /// and the column-polarity sign q.
    std::vector<ProgrammedArray::ColumnView> flip_view;
    std::vector<int> flip_q;
  };

  /// Unit scratch.  The sweep accumulates current sums /
  /// squared-multiplier sums into `nsum`/`nsq` packed
  /// [bank * 2bits + plane * bits + bit] (4 * bits <= 64 lanes), so its
  /// bank-selecting per-cell inner bit loop is branch-free and unit-stride.
  /// Both lane sources then leave the unit's conversion lanes in
  /// `lane_sum`/`lane_sq`, [pass][slot] in cursor order (2 * present <=
  /// 4 * bits lanes), which the conversion kernel reads contiguously next
  /// to the unit's batched draws.  The sweep is serial and every unit
  /// rewrites the lanes it reads, so one instance serves every
  /// (flip, band) unit of an evaluation.
  struct alignas(64) BandScratch {
    double nsum[64];
    double nsq[64];
    double lane_sum[64];
    double lane_sq[64];
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

  /// Code sum of the (column flips[fi], band) unit: its [pass][slot] lanes
  /// from the bank sums when they are live (the other flipped rows with a
  /// cell in the unit leave their bank), else from the sweep over the
  /// column's cells skipping the rows marked in the flip mask, converted
  /// against the unit's draws `z`.  `view` is column flips[fi], `src` its
  /// non-empty slot list in `band`.  The one per-unit lane and conversion
  /// path of evaluate() and evaluate_columns().
  double read_unit(const UnitInvariants& inv, const ising::Spin* spins,
                   std::span<const std::uint32_t> flips, std::size_t fi,
                   std::size_t band, const ProgrammedArray::ColumnView& view,
                   std::span<const std::uint8_t> src, const double* z);

  void build_incremental_state(std::span<const ising::Spin> spins);

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
  EvalWorkspace workspace_;
  BandScratch scratch_;
  /// Incremental readout: enabled on an array that supports it, and
  /// whether state_ matches the spins the caller holds.
  bool incremental_ = false;
  bool state_live_ = false;
  std::size_t state_stride_ = 2;  ///< doubles per slot, see incremental_state()
  std::vector<double> state_;
};

}  // namespace fecim::crossbar
