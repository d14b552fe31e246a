#include "util/rng.hpp"

#include <bit>
#include <cmath>

#include "util/simd.hpp"

namespace fecim::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // A state of all zeros would lock the engine at zero; splitmix64 cannot
  // produce four zero words from any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

Rng::result_type Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform01() noexcept {
  // 53 high bits -> double in [0,1) with full mantissa resolution.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  FECIM_EXPECTS(n > 0);
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  FECIM_EXPECTS(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool Rng::bernoulli(double p) noexcept { return uniform01() < p; }

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  std::vector<std::uint32_t> chosen;
  sample_without_replacement_into(n, k, chosen);
  return chosen;
}

void Rng::sample_without_replacement_into(std::uint32_t n, std::uint32_t k,
                                          std::vector<std::uint32_t>& chosen) {
  FECIM_EXPECTS(k <= n);
  chosen.clear();
  chosen.reserve(k);
  // Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; if t already
  // chosen insert j, else insert t.  O(k) expected with a linear membership
  // scan (k is small everywhere in this project).
  for (std::uint32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::uint32_t>(uniform_index(j + 1));
    bool seen = false;
    for (const auto c : chosen) {
      if (c == t) {
        seen = true;
        break;
      }
    }
    chosen.push_back(seen ? j : t);
  }
  FECIM_ENSURES(chosen.size() == k);
}

Rng Rng::split(std::uint64_t stream_tag) const noexcept {
  // Derive a child seed by hashing the parent state with the stream tag.
  std::uint64_t h = state_[0] ^ rotl(state_[1], 13) ^ rotl(state_[2], 29) ^
                    rotl(state_[3], 43);
  h ^= 0xd6e8feb86659fd93ULL * (stream_tag + 1);
  std::uint64_t sm = h;
  return Rng(splitmix64(sm));
}

// ---------------------------------------------------------------------------
// NoiseStream: counter-keyed draws.
// ---------------------------------------------------------------------------

namespace {

// 128-layer ziggurat for the standard normal (Marsaglia & Tsang layout,
// Doornik's double-precision acceptance form).  R is the right edge of the
// last finite strip, V the common strip area.
constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

struct ZigguratTables {
  double x[kZigLayers + 1];  // strip right edges; x[kZigLayers] = 0
  double ratio[kZigLayers];  // x[i+1] / x[i]: the quick-accept thresholds

  ZigguratTables() noexcept {
    const double f_r = std::exp(-0.5 * kZigR * kZigR);
    x[0] = kZigV / f_r;  // pseudo-edge of the base strip (holds the tail)
    x[1] = kZigR;
    x[kZigLayers] = 0.0;
    for (int i = 2; i < kZigLayers; ++i) {
      const double prev = x[i - 1];
      x[i] = std::sqrt(
          -2.0 * std::log(kZigV / prev + std::exp(-0.5 * prev * prev)));
    }
    for (int i = 0; i < kZigLayers; ++i) ratio[i] = x[i + 1] / x[i];
  }
};

// Namespace-scope constant: initialized once before main, so the hot
// samplers read the tables without a function-local-static guard check on
// every draw.
const ZigguratTables g_zig_tables;

inline double unit_from_bits(std::uint64_t bits) noexcept {
  // 53 high bits -> [0, 1), full mantissa resolution.
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

inline double positive_unit_from_bits(std::uint64_t bits) noexcept {
  // (0, 1]: safe as a log() argument.
  return static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
}

/// Cold continuation of a draw whose first attempt failed the quick box
/// test: resolve that attempt (tail for layer 0, wedge otherwise), then keep
/// drawing until acceptance.  `state` advances only within this draw, so
/// rejection retries never leak into neighboring indices.  Out of line on
/// purpose -- ~1.2% of draws land here, and keeping it cold lets the box
/// fast path inline into the fill loops.
double normal_rejection(std::uint64_t state, int layer, double u) noexcept {
  const ZigguratTables& t = g_zig_tables;
  for (;;) {
    if (layer == 0) {
      // Base strip: sample the tail beyond R (Marsaglia's exact method).
      const bool negative = u < 0.0;
      for (;;) {
        const double a =
            -std::log(positive_unit_from_bits(splitmix64(state))) / kZigR;
        const double b = -std::log(positive_unit_from_bits(splitmix64(state)));
        if (b + b > a * a) return negative ? -(kZigR + a) : kZigR + a;
      }
    }
    // Wedge: accept against the density between the strip edges.
    const double x = u * t.x[layer];
    const double f0 = std::exp(-0.5 * (t.x[layer] * t.x[layer] - x * x));
    const double f1 =
        std::exp(-0.5 * (t.x[layer + 1] * t.x[layer + 1] - x * x));
    if (f1 + unit_from_bits(splitmix64(state)) * (f0 - f1) < 1.0) return x;
    // Next attempt: layer from the low 7 bits, signed uniform in [-1, 1)
    // from the high 53 -- disjoint bit ranges of one hash.
    const std::uint64_t bits = splitmix64(state);
    layer = static_cast<int>(bits & 0x7F);
    u = 2.0 * unit_from_bits(bits) - 1.0;
    if (std::fabs(u) < t.ratio[layer]) return u * t.x[layer];
  }
}

/// Sub-stream state for draw `index` of stream `key`: a Weyl step over the
/// index xor'd into the key; every downstream use runs it through at least
/// one splitmix64 round for avalanche.
inline std::uint64_t substream_state(std::uint64_t key,
                                     std::uint64_t index) noexcept {
  return key ^ (index * 0x9e3779b97f4a7c15ULL);
}

constexpr std::uint64_t kWeyl = 0x9e3779b97f4a7c15ULL;

/// Vector pass of the widened fill: one block of up to 64 consecutive draws.
/// Each lane fuses substream_state with the first splitmix64 round of
/// keyed_normal and resolves the quick box test; accepted lanes store their
/// final value, failed lanes set their bit in the returned miss mask.  Kept
/// `noinline` as a vectorization barrier, not for code size: inlined into
/// the caller's block loop, GCC's induction-variable rewrite turns the two
/// table lookups into address forms its vectorizer rejects ("no vectype"),
/// and the whole loop silently compiles scalar.  As a standalone function it
/// auto-vectorizes end to end -- counter hash, u64->double conversion, the
/// two gathers, the box compare and the mask reduction (verify with
/// -fopt-info-vec).
__attribute__((noinline)) std::uint64_t normal_fill_pass(
    const double* FECIM_RESTRICT xs, const double* FECIM_RESTRICT rs,
    double* FECIM_RESTRICT o, std::uint64_t key, std::uint64_t weyl,
    std::size_t w) noexcept {
  std::uint64_t miss = 0;
  for (std::size_t lane = 0; lane < w; ++lane) {
    std::uint64_t z = (key ^ (weyl + lane * kWeyl)) + kWeyl;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const auto layer = static_cast<std::size_t>(z & 0x7F);
    const double u = 2.0 * unit_from_bits(z) - 1.0;
    o[lane] = u * xs[layer];
    miss |= static_cast<std::uint64_t>(!(std::fabs(u) < rs[layer])) << lane;
  }
  return miss;
}

/// One standard normal for (key, index); the ~98.8% box case inlines.
inline double keyed_normal(std::uint64_t key, std::uint64_t index) noexcept {
  std::uint64_t state = substream_state(key, index);
  const std::uint64_t bits = splitmix64(state);
  const int layer = static_cast<int>(bits & 0x7F);
  const double u = 2.0 * unit_from_bits(bits) - 1.0;
  const ZigguratTables& t = g_zig_tables;
  if (std::fabs(u) < t.ratio[layer]) return u * t.x[layer];
  return normal_rejection(state, layer, u);
}

}  // namespace

NoiseStream::NoiseStream(std::uint64_t run_seed,
                         std::uint64_t site_id) noexcept {
  // Two mixing rounds: decorrelate raw seeds, then fold in the site so
  // (seed, site) pairs land far apart even for small consecutive values.
  std::uint64_t s = run_seed;
  const std::uint64_t mixed_seed = splitmix64(s);
  s = mixed_seed ^ (site_id * 0xd6e8feb86659fd93ULL);
  key_ = splitmix64(s);
}

std::uint64_t NoiseStream::bits(std::uint64_t index) const noexcept {
  std::uint64_t state = substream_state(key_, index);
  return splitmix64(state);
}

double NoiseStream::uniform01(std::uint64_t index) const noexcept {
  return unit_from_bits(bits(index));
}

double NoiseStream::normal(std::uint64_t index) const noexcept {
  return keyed_normal(key_, index);
}

double NoiseStream::normal(std::uint64_t index, double mean,
                           double stddev) const noexcept {
  return mean + stddev * normal(index);
}

void NoiseStream::normal_fill(std::uint64_t base_index,
                              std::span<double> out) const noexcept {
  // Widened ziggurat pass: the draws are independent pure functions of
  // (key, base_index + i), so the fill runs in blocks of kLanes -- the
  // counter hash, the layer/uniform extraction and the box test are all
  // straight-line lane-parallel arithmetic the compiler auto-vectorizes
  // (the 64-bit multiplies and the two small table gathers need a recent
  // ISA; on older targets the same loops simply compile scalar).  The
  // ~1.2% of lanes that fail the quick box test fall back to the scalar
  // rejection continuation, which resumes each lane's private sub-stream
  // exactly where keyed_normal would -- so every element is bit-identical
  // to normal(base_index + i), for every block width and any base_index
  // alignment.
  const std::uint64_t key = key_;
  const std::size_t size = out.size();
  double* FECIM_RESTRICT o = out.data();
  // Strength-reduced Weyl counter: index * kWeyl advances by one addition
  // per block instead of one multiplication per lane (the value is
  // identical -- the Weyl product is linear in the index).
  std::uint64_t weyl = base_index * kWeyl;
  for (std::size_t block = 0; block < size; block += 64) {
    const std::size_t w = size - block < 64 ? size - block : 64;
    std::uint64_t miss = normal_fill_pass(g_zig_tables.x, g_zig_tables.ratio,
                                          o + block, key, weyl, w);
    // Cold pass (~2.8% of lanes): each miss re-derives its hash from the
    // index -- a draw is a pure function of (key, index), so nothing needs
    // to be carried over -- and resolves its private rejection sub-stream.
    // The first wedge attempt of every missed lane is unrolled here in
    // structure-of-arrays phases: argument setup for all misses, then the
    // exp pairs back to back (independent calls, so they pipeline instead
    // of serializing behind each miss's branches), then the accept tests.
    // Lanes are independent sub-streams, so resolving them out of the
    // strictly interleaved order leaves every element's private splitmix64
    // chain -- and hence its value -- untouched; only the ~7% of misses
    // that fail their first wedge test (or hit the layer-0 tail) fall back
    // to the general rejection loop.
    if (miss != 0) {
      const ZigguratTables& t = g_zig_tables;
      std::uint8_t lane_of[64];
      std::uint64_t st[64];
      double arg0[64], arg1[64], xx[64], f0[64], f1[64];
      int k = 0;
      while (miss != 0) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(miss));
        miss &= miss - 1;
        std::uint64_t s = (key ^ (weyl + lane * kWeyl)) + kWeyl;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        const int layer = static_cast<int>(z & 0x7F);
        const double u = 2.0 * unit_from_bits(z) - 1.0;
        if (layer == 0) {  // base strip: straight to the tail sampler
          o[block + lane] = normal_rejection(s, layer, u);
          continue;
        }
        const double x = u * t.x[layer];
        lane_of[k] = static_cast<std::uint8_t>(lane);
        st[k] = s;
        xx[k] = x;
        arg0[k] = -0.5 * (t.x[layer] * t.x[layer] - x * x);
        arg1[k] = -0.5 * (t.x[layer + 1] * t.x[layer + 1] - x * x);
        ++k;
      }
      for (int i = 0; i < k; ++i) f0[i] = std::exp(arg0[i]);
      for (int i = 0; i < k; ++i) f1[i] = std::exp(arg1[i]);
      for (int i = 0; i < k; ++i) {
        std::uint64_t s = st[i];
        if (f1[i] + unit_from_bits(splitmix64(s)) * (f0[i] - f1[i]) < 1.0) {
          o[block + lane_of[i]] = xx[i];
          continue;
        }
        // Failed wedge: the next attempt's box test, inline; its own
        // misses continue in the shared rejection loop with the state
        // advanced exactly as the interleaved form would have left it.
        const std::uint64_t bits = splitmix64(s);
        const int layer2 = static_cast<int>(bits & 0x7F);
        const double u2 = 2.0 * unit_from_bits(bits) - 1.0;
        o[block + lane_of[i]] = std::fabs(u2) < t.ratio[layer2]
                                    ? u2 * t.x[layer2]
                                    : normal_rejection(s, layer2, u2);
      }
    }
    weyl += 64 * kWeyl;
  }
}

}  // namespace fecim::util
