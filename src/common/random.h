// Seedable random number generation for reproducible experiments.
//
// Every stochastic component of MetaLeak (synthetic data generators,
// Monte-Carlo experiment rounds, dataset synthesis) draws from an Rng that
// the caller seeds explicitly, so a (seed, config) pair fully determines an
// experiment's output.
#ifndef METALEAK_COMMON_RANDOM_H_
#define METALEAK_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace metaleak {

/// MT19937-64 (Matsumoto and Nishimura), output for output the standard
/// library's mt19937_64: the same seeding, twist and tempering. The
/// twist picks its matrix term with a mask rather than a branch on each
/// state word's low bit, which mispredicts half the time, and refills all
/// 312 words out of line once per 312 draws. Meets the standard's
/// uniform random bit generator requirements, so std distributions run
/// over it unchanged.
class MersenneTwister64 {
 public:
  using result_type = uint64_t;

  explicit MersenneTwister64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateSize) Twist();
    uint64_t z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kStateSize = 312;

  void Twist();

  uint64_t state_[kStateSize];
  size_t pos_;
};

/// An explicitly seeded MT19937-64 stream with the sampling primitives the
/// generators need. Copyable (2.5 KB) so that an experiment round can
/// snapshot the stream state.
///
/// The hot primitives (UniformIndex, UniformDouble, Bernoulli) are inline
/// and fix their arithmetic here, equal draw for draw to libstdc++'s
/// uniform_int_distribution, uniform_real_distribution and
/// bernoulli_distribution over the standard mt19937_64. UniformInt and
/// Normal are those std distributions over the same engine. UniformDouble's
/// `r * (hi - lo) + lo` is only bit-stable where the compiler may not fuse
/// it into an FMA, so every translation unit that draws must be built with
/// -ffp-contract=off (the root CMakeLists.txt sets it).
class Rng {
 public:
  /// Seeds the stream. The default seed is arbitrary but fixed, so unseeded
  /// uses are still deterministic.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform size_t index in [0, n). Requires n > 0. Lemire's
  /// multiply-high with libstdc++'s rejection threshold (2^64 - n) mod n.
  size_t UniformIndex(size_t n) {
    static_assert(sizeof(size_t) == sizeof(uint64_t));
    METALEAK_DCHECK(n > 0);
    __extension__ typedef unsigned __int128 U128;
    U128 product = static_cast<U128>(engine_()) * n;
    if (static_cast<uint64_t>(product) < n) {
      const uint64_t threshold = (0 - n) % n;
      while (static_cast<uint64_t>(product) < threshold) {
        product = static_cast<U128>(engine_()) * n;
      }
    }
    return static_cast<size_t>(product >> 64);
  }

  /// Uniform double in [lo, hi). Requires lo <= hi; returns lo when equal.
  double UniformDouble(double lo, double hi) {
    METALEAK_DCHECK(lo <= hi);
    if (lo == hi) return lo;
    return CanonicalDouble(engine_()) * (hi - lo) + lo;
  }

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p) {
    METALEAK_DCHECK(p >= 0.0 && p <= 1.0);
    return CanonicalDouble(engine_()) < p;
  }

  /// Maps 64 random bits to [0, 1) as std::generate_canonical<double, 64>
  /// does over a 64-bit engine: double(bits) * 2^-64, or the largest
  /// double below 1 when that rounds to 1. Both 32-bit halves convert
  /// exactly, so their sum rounds once and equals double(bits) without
  /// the sign test a u64-to-double conversion costs.
  static double CanonicalDouble(uint64_t bits) {
    const double x =
        static_cast<double>(static_cast<uint32_t>(bits >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<uint32_t>(bits));
    const double r = x * 0x1p-64;
    return r < 1.0 ? r : 0x1.fffffffffffffp-1;
  }

  /// Standard normal draw scaled to (mean, stddev).
  double Normal(double mean, double stddev);

  /// Samples `k` distinct indices from [0, n) without replacement
  /// (Floyd's algorithm). Requires k <= n. Order is unspecified.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// The same draw into out[0, k): identical RNG consumption and output
  /// sequence. Allocates nothing once this thread's chosen-index table
  /// has grown to the largest k it has seen.
  void SampleWithoutReplacement(size_t n, size_t k, size_t* out);

  /// Fisher-Yates shuffle of `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    METALEAK_DCHECK(values != nullptr);
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = UniformIndex(i);
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Returns a value drawn uniformly from `values`. Requires non-empty.
  template <typename T>
  const T& Choice(const std::vector<T>& values) {
    METALEAK_DCHECK(!values.empty());
    return values[UniformIndex(values.size())];
  }

  /// Derives an independent child stream; used to give each attribute /
  /// round its own stream so adding attributes does not perturb others.
  Rng Fork();

  /// Advances the stream exactly like Fork() but returns the derived
  /// child *seed*: Fork() is equivalent to Rng(ForkSeed()). Recording the
  /// seed makes a derived stream replayable in isolation (the experiment
  /// runner stores one per Monte-Carlo round).
  uint64_t ForkSeed();

  MersenneTwister64& engine() { return engine_; }

 private:
  MersenneTwister64 engine_;
};

}  // namespace metaleak

#endif  // METALEAK_COMMON_RANDOM_H_
