// Behavioural model of the 13-bit SAR ADC the paper instantiates [36]
// (kT/C-noise-cancelling SAR, 40 MS/s, scaled to 22 nm; 8 columns share one
// converter through a MUX).
//
// The model captures what reaches the algorithm: input clamping, uniform
// quantization, and input-referred noise (comparator + residual kT/C) in
// LSBs.  Energy and latency per conversion live in fecim::cost.
#pragma once

#include <cmath>
#include <cstdint>

namespace fecim::circuit {

struct SarAdcParams {
  int bits = 13;
  double full_scale_current = 12e-6;  ///< current mapped to the top code [A]
  double noise_lsb_rms = 0.5;         ///< input-referred noise [LSB rms]
};

class SarAdc {
 public:
  explicit SarAdc(const SarAdcParams& params = {});

  /// Quantize a sensed column current into a code in [0, 2^bits - 1].
  /// Negative inputs clamp to 0, overrange clamps to full scale.
  ///
  /// `noise_z` is the conversion's standard-normal input-noise draw, keyed
  /// per conversion index by the caller (util::NoiseStream, site kAdcNoise);
  /// it is scaled by noise_lsb_rms * LSB internally.  Passing the draw
  /// instead of a generator keeps convert() a pure function, so conversions
  /// can be computed in any order or in batches.  Defined inline: the noisy
  /// engine performs one call per present segment per pass.
  std::uint32_t convert(double current, double noise_z) const noexcept {
    return convert_ideal(current + noise_z * noise_current_);
  }

  /// Noiseless transfer (also the shared quantizer behind convert()).
  std::uint32_t convert_ideal(double current) const noexcept {
    if (current <= 0.0) return 0;
    // Mid-tread transfer (0.5 LSB comparator offset): unbiased rounding, so
    // quantization error does not accumulate a systematic sign across the
    // shift-and-add of the bit-sliced columns.  The reciprocal multiply
    // replaces a divide on the per-conversion hot path; it can move a
    // current sitting exactly on a comparator threshold by one code, which
    // is within the 0.5 LSB accuracy the model claims.
    const double code = std::floor(current * inv_lsb_ + 0.5);
    if (code >= static_cast<double>(max_code_)) return max_code_;
    return static_cast<std::uint32_t>(code);
  }

  /// convert_ideal() with the code returned as an (exact integer-valued)
  /// double, written branch-free so the analog engine's per-slot
  /// conversion loop auto-vectorizes (floor + two blends).  Equal to
  /// double(convert_ideal(current)) for every input: both clamps select
  /// between the same exactly-representable values.
  double convert_ideal_d(double current) const noexcept {
    const double max_code = static_cast<double>(max_code_);
    const double code = std::floor(current * inv_lsb_ + 0.5);
    const double clamped = code >= max_code ? max_code : code;
    return current <= 0.0 ? 0.0 : clamped;
  }

  /// Current represented by one LSB.
  double lsb_current() const noexcept { return lsb_; }

  /// Input-referred noise sigma in amps (noise_lsb_rms * lsb); the engines
  /// fold it into the per-conversion total readout sigma.
  double noise_sigma_current() const noexcept { return noise_current_; }

  /// Reconstruct the current a code stands for (mid-rise).
  double current_from_code(std::uint32_t code) const noexcept;

  std::uint32_t max_code() const noexcept { return max_code_; }
  const SarAdcParams& params() const noexcept { return params_; }

 private:
  SarAdcParams params_;
  std::uint32_t max_code_;
  double lsb_;
  double inv_lsb_;        ///< 1 / lsb, hot-path reciprocal
  double noise_current_;  ///< noise_lsb_rms * lsb, the sigma in amps
};

}  // namespace fecim::circuit
