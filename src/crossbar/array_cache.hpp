// Content-addressed cache of programmed crossbar arrays (the serving
// amortization layer, see docs/serving.md).
//
// PERF.md invariant 1 -- a ProgrammedArray is immutable once programmed --
// makes cross-request sharing safe by construction: two requests whose
// quantized couplings, mapping, device/variation parameters, programming
// seed, and tile shape coincide would program byte-identical arrays, so
// they may share one.  The cache keys arrays by a 128-bit content digest
// over exactly those inputs (every field that ProgrammedArray's constructor
// reads, nothing else) and hands out shared_ptr<const ProgrammedArray>.
// Because readout noise is counter-keyed per (run seed, conversion index)
// rather than per array instance (invariant 2), a cached array yields
// bit-identical campaign results to a freshly programmed one -- the cache
// is a pure build-time optimization, pinned by tests/test_array_cache.cpp.
//
// Concurrency: get_or_build() publishes an in-flight build as a
// shared_future before releasing the lock, so racing requests for the same
// digest wait on the winner's build instead of duplicating it -- each
// distinct array is programmed exactly once per residency.  A build
// programs large arrays on the util::parallel_for pool, and top-level
// parallel_for calls serialize on one mutex, so a pool task must never
// wait on a build that a thread outside the pool started: that build may
// be queued behind the task's own pool job.  (A build started inside a pool
// task runs inline and is safe to wait on.)  Eviction is
// LRU over resident entries, bounded by an approximate byte budget
// (ProgrammedArray::approx_bytes()); the most recently inserted entry is
// never evicted, so a single array larger than the budget still serves.
// Evicting only drops the cache's reference -- annealers holding the
// shared_ptr keep their array alive.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "crossbar/programmed_array.hpp"

namespace fecim::crossbar {

/// 128-bit content digest identifying one programmable array.
struct ArrayDigest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const ArrayDigest&, const ArrayDigest&) = default;
};

struct ArrayDigestHash {
  std::size_t operator()(const ArrayDigest& d) const noexcept {
    // hi and lo are already well-mixed splitmix lanes; fold them.
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Streaming two-lane splitmix64 hash.  Fields are fed individually (never
/// as raw struct bytes, so padding can't leak in), each preceded by enough
/// framing (span lengths, version tag) to keep distinct input sequences
/// from colliding by concatenation.
class DigestBuilder {
 public:
  void add_u64(std::uint64_t v) noexcept;
  void add_i64(std::int64_t v) noexcept {
    add_u64(static_cast<std::uint64_t>(v));
  }
  void add_double(double v) noexcept;
  void add_bool(bool v) noexcept { add_u64(v ? 1 : 0); }
  ArrayDigest digest() const noexcept { return {hi_, lo_}; }

 private:
  std::uint64_t hi_ = 0x6a09e667f3bcc909ULL;
  std::uint64_t lo_ = 0xbb67ae8584caa73bULL;
};

/// Digest of every input ProgrammedArray's constructor reads: the quantized
/// coupling content (n, bits, scale, sign planes, per-column sparsity
/// pattern and magnitudes), the mapping configuration, the device compact
/// model, the variation model, the programming-time variation seed, and the
/// tile shape.
ArrayDigest array_digest(const QuantizedCouplings& couplings,
                         const MappingConfig& mapping,
                         const device::DgFefetParams& device_params,
                         const device::VariationParams& variation,
                         std::uint64_t seed, const TileShape& tiles);

/// Monotonic counters, snapshot under the cache lock by stats().
struct ArrayCacheStats {
  std::size_t hits = 0;    ///< lookups served by an existing/in-flight build
  std::size_t misses = 0;  ///< lookups that programmed an array (== builds)
  std::size_t evictions = 0;
  std::size_t entries = 0;       ///< resident arrays right now
  std::size_t bytes = 0;         ///< approximate resident footprint
  double build_seconds = 0.0;    ///< total wall time spent programming
};

class ArrayCache {
 public:
  /// Roughly eight Gset-G81-scale arrays by default.
  static constexpr std::size_t kDefaultByteBudget =
      std::size_t{1} << 31;  // 2 GiB

  explicit ArrayCache(std::size_t byte_budget = kDefaultByteBudget)
      : byte_budget_(byte_budget) {}

  ArrayCache(const ArrayCache&) = delete;
  ArrayCache& operator=(const ArrayCache&) = delete;

  /// Returns the array for the digest of the given inputs, programming it
  /// (outside the lock) iff no resident or in-flight build exists.  Racing
  /// callers of the same digest share one build; a failed build rethrows to
  /// every waiter and leaves the digest rebuildable.
  std::shared_ptr<const ProgrammedArray> get_or_build(
      const QuantizedCouplings& couplings, const CrossbarMapping& mapping,
      const device::DgFefetParams& device_params,
      const device::VariationParams& variation, std::uint64_t seed,
      const TileShape& tiles);

  ArrayCacheStats stats() const;
  std::size_t byte_budget() const noexcept { return byte_budget_; }

 private:
  using ArrayPtr = std::shared_ptr<const ProgrammedArray>;

  struct Slot {
    std::shared_future<ArrayPtr> future;
    std::size_t bytes = 0;
    bool resident = false;
    std::list<ArrayDigest>::iterator lru{};  ///< valid iff resident
  };

  /// Pop least-recently-used residents until within budget; never evicts
  /// the front (most recent) entry.  Caller holds mutex_.
  void evict_over_budget();

  const std::size_t byte_budget_;
  mutable std::mutex mutex_;
  std::unordered_map<ArrayDigest, Slot, ArrayDigestHash> slots_;
  std::list<ArrayDigest> lru_;  ///< front = most recently used
  std::size_t bytes_ = 0;
  ArrayCacheStats counters_{};
};

}  // namespace fecim::crossbar
