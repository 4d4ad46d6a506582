// Seedable random number generation for reproducible experiments.
//
// Every stochastic component of MetaLeak (synthetic data generators,
// Monte-Carlo experiment rounds, dataset synthesis) draws from an Rng that
// the caller seeds explicitly, so a (seed, config) pair fully determines an
// experiment's output.
#ifndef METALEAK_COMMON_RANDOM_H_
#define METALEAK_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/macros.h"

namespace metaleak {

/// A thin, explicitly-seeded wrapper over std::mt19937_64 with the sampling
/// primitives the generators need. Copyable so that an experiment round can
/// snapshot the stream state.
class Rng {
 public:
  /// Seeds the stream. The default seed is arbitrary but fixed, so unseeded
  /// uses are still deterministic.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform size_t index in [0, n). Requires n > 0.
  size_t UniformIndex(size_t n);

  /// Uniform double in [lo, hi). Requires lo <= hi; returns lo when equal.
  double UniformDouble(double lo, double hi);

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p);

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

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace metaleak

#endif  // METALEAK_COMMON_RANDOM_H_
