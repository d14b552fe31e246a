#include "crossbar/array_cache.hpp"

#include <bit>
#include <chrono>
#include <utility>

namespace fecim::crossbar {

namespace {

std::uint64_t splitmix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void DigestBuilder::add_u64(std::uint64_t v) noexcept {
  hi_ = splitmix64(hi_ ^ v);
  lo_ = splitmix64(lo_ + (v ^ 0xd1b54a32d192ed03ULL));
}

void DigestBuilder::add_double(double v) noexcept {
  add_u64(std::bit_cast<std::uint64_t>(v));
}

ArrayDigest array_digest(const QuantizedCouplings& couplings,
                         const MappingConfig& mapping,
                         const device::DgFefetParams& device_params,
                         const device::VariationParams& variation,
                         std::uint64_t seed, const TileShape& tiles) {
  DigestBuilder b;
  b.add_u64(0xfec1'0008'0001ULL);  // key-schema version tag

  // Quantized coupling content: geometry, calibration, and the full CSC
  // pattern.  scale folds the source matrix's max|J| in, so two matrices
  // with identical codes but different physical scales key differently.
  b.add_u64(couplings.num_spins());
  b.add_i64(couplings.bits());
  b.add_double(couplings.scale());
  b.add_bool(couplings.has_negative());
  b.add_u64(couplings.nonzeros());
  for (std::size_t j = 0; j < couplings.num_spins(); ++j) {
    const auto rows = couplings.column_rows(j);
    const auto values = couplings.column_values(j);
    b.add_u64(rows.size());
    for (const auto r : rows) b.add_u64(r);
    for (const auto v : values) b.add_i64(v);
  }

  // Mapping configuration (bits already covered, but framing is cheap).
  b.add_i64(mapping.bits);
  b.add_u64(mapping.mux_ratio);
  b.add_bool(mapping.interleave_columns);

  // Device compact model -- cell multipliers fold dVth through n * Vt, so
  // every transistor parameter is key material.
  b.add_double(device_params.vth_low);
  b.add_double(device_params.vth_high);
  b.add_double(device_params.back_gate_coupling);
  b.add_double(device_params.read_vfg);
  b.add_double(device_params.read_vdl);
  b.add_double(device_params.vbg_max);
  b.add_double(device_params.transistor.i_spec);
  b.add_double(device_params.transistor.slope_factor);
  b.add_double(device_params.transistor.thermal_voltage);
  b.add_double(device_params.transistor.lambda);

  // Programming-time stochastic state: variation model + its seed.  (Read
  // noise is re-keyed per run and its draws do not live in the array, but
  // the engine reads its rate from the array's variation_params().)
  b.add_double(variation.vth_sigma);
  b.add_double(variation.read_noise_rel);
  b.add_double(variation.stuck_off_rate);
  b.add_double(variation.stuck_on_rate);
  b.add_u64(seed);

  // Tile shape changes the band-local column cache layout.
  b.add_u64(tiles.rows);
  b.add_u64(tiles.cols);

  return b.digest();
}

std::shared_ptr<const ProgrammedArray> ArrayCache::get_or_build(
    const QuantizedCouplings& couplings, const CrossbarMapping& mapping,
    const device::DgFefetParams& device_params,
    const device::VariationParams& variation, std::uint64_t seed,
    const TileShape& tiles) {
  const ArrayDigest key = array_digest(couplings, mapping.config(),
                                       device_params, variation, seed, tiles);

  std::promise<ArrayPtr> promise;
  {
    std::shared_future<ArrayPtr> pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = slots_.find(key);
      if (it != slots_.end()) {
        ++counters_.hits;
        if (it->second.resident)
          lru_.splice(lru_.begin(), lru_, it->second.lru);
        pending = it->second.future;
      } else {
        ++counters_.misses;
        Slot slot;
        slot.future = promise.get_future().share();
        slots_.emplace(key, std::move(slot));
      }
    }
    // get() outside the lock: an in-flight build may still be programming,
    // and waiting for it must not block other digests' lookups.  Waiting
    // counts as a hit.
    if (pending.valid()) return pending.get();
  }

  ArrayPtr array;
  const auto start = std::chrono::steady_clock::now();
  try {
    array = std::make_shared<const ProgrammedArray>(
        couplings, mapping, device_params, variation, seed, tiles);
  } catch (...) {
    // Publish the failure to waiters, then forget the digest so a later
    // request may retry the build.
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.erase(key);
    throw;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  promise.set_value(array);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.build_seconds += elapsed;
    auto it = slots_.find(key);
    // The slot is still ours: only a failed build erases it, and only the
    // builder does that.
    if (it != slots_.end() && !it->second.resident) {
      it->second.bytes = array->approx_bytes() + sizeof(Slot);
      it->second.resident = true;
      lru_.push_front(key);
      it->second.lru = lru_.begin();
      bytes_ += it->second.bytes;
      evict_over_budget();
    }
  }
  return array;
}

void ArrayCache::evict_over_budget() {
  while (bytes_ > byte_budget_ && lru_.size() > 1) {
    const ArrayDigest victim = lru_.back();
    lru_.pop_back();
    auto it = slots_.find(victim);
    if (it != slots_.end()) {
      bytes_ -= it->second.bytes;
      slots_.erase(it);
      ++counters_.evictions;
    }
  }
}

ArrayCacheStats ArrayCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ArrayCacheStats snapshot = counters_;
  snapshot.entries = lru_.size();
  snapshot.bytes = bytes_;
  return snapshot;
}

}  // namespace fecim::crossbar
