// Exact-arithmetic E_inc engine.
//
// Computes sigma_r^T J sigma_c in floating point (no quantization, device or
// ADC effects) while still producing a faithful hardware event trace.  Two
// accounting modes:
//   * kInSitu         -- only the |F| flipped columns are driven and sensed
//                        (this work's dataflow);
//   * kDirectFullArray-- every column is sensed, modeling the direct-E
//                        annealers [7] that recompute the full VMV each
//                        iteration.
// The baselines use this engine (their algorithmic behaviour is exact
// digital arithmetic); the proposed annealer uses it for noise-free
// ablations.
//
// Annealers opt into the local-field cache (enable_local_field_cache()):
// evaluations then read cached h_eff values instead of walking CSR rows, at
// the cost of a protocol -- the caller must report every applied flip set
// through on_flips_applied(), and a wholesale rewrite of the configuration
// needs a fresh engine (the annealers build one per run) or a cache reset
// (the direct-E epoch restarts).  Callers that hand evaluate() unrelated
// spin vectors (tests) leave the cache off and get the stateless row-walk
// path.
#pragma once

#include <vector>

#include "crossbar/engine.hpp"
#include "crossbar/mapping.hpp"
#include "crossbar/tiling.hpp"
#include "ising/ising_model.hpp"
#include "ising/local_field.hpp"

namespace fecim::crossbar {

enum class Accounting { kInSitu, kDirectFullArray };

class IdealCrossbarEngine final : public EincEngine {
 public:
  /// `model` must outlive the engine.  `tiles` selects the physical tile
  /// grid the event accounting assumes (default monolithic): arithmetic is
  /// exact either way, but a >1-tile grid converts each sensed column once
  /// per row band and digitally merges the per-tile partial sums, so
  /// adc_conversions / tile_activations / partial_sum_updates scale with
  /// the band count.  Lacking a programmed-cell map, the ideal engine
  /// charges every band (dense-tile accounting) -- an upper bound the
  /// analog engine's sparsity-aware trace refines.
  IdealCrossbarEngine(const ising::IsingModel& model, CrossbarMapping mapping,
                      Accounting accounting, const TileShape& tiles = {});

  EincResult evaluate(std::span<const ising::Spin> spins,
                      const ising::FlipSet& flips,
                      const AnnealSignal& signal) override;

  void on_flips_applied(std::span<const ising::Spin> spins_after,
                        const ising::FlipSet& flips) override;

  /// Switch evaluations to the incrementally-maintained local-field cache
  /// (built lazily from the spins of the next evaluate() call).  Calling it
  /// again resets the cache, as a wholesale spin rewrite requires.
  void enable_local_field_cache() {
    use_cache_ = true;
    cache_.reset();
  }

  std::size_t num_spins() const noexcept override {
    return model_->num_spins();
  }

  const CrossbarMapping& mapping() const noexcept { return mapping_; }

  /// Row bands of the assumed tile grid (1 = monolithic).
  std::size_t grid_rows() const noexcept { return grid_rows_; }

 private:
  const ising::IsingModel* model_;
  CrossbarMapping mapping_;
  Accounting accounting_;
  std::size_t grid_rows_ = 1;
  bool use_cache_ = false;
  ising::LocalFieldCache cache_;
};

}  // namespace fecim::crossbar
