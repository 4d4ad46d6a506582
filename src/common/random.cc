#include "common/random.h"

#include <random>

#include "common/flat_id_table.h"

namespace metaleak {

MersenneTwister64::MersenneTwister64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  pos_ = kStateSize;
}

void MersenneTwister64::Twist() {
  constexpr size_t kShift = 156;  // the recurrence's middle offset m
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  // x[k] = x[k + m] ^ (y >> 1) ^ (a if y is odd), y = the upper 33 bits
  // of x[k] over the lower 31 of x[k + 1]; all 64 bits of 0 - (y & 1) are
  // y's low bit, so the mask selects a without a branch.
  auto next = [](uint64_t cur, uint64_t succ, uint64_t far) {
    const uint64_t y = (cur & kUpper) | (succ & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
  };
  for (size_t k = 0; k < kStateSize - kShift; ++k) {
    state_[k] = next(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (size_t k = kStateSize - kShift; k < kStateSize - 1; ++k) {
    state_[k] =
        next(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  }
  state_[kStateSize - 1] =
      next(state_[kStateSize - 1], state_[0], state_[kShift - 1]);
  pos_ = 0;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  METALEAK_DCHECK(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  std::vector<size_t> out(k);
  SampleWithoutReplacement(n, k, out.data());
  return out;
}

void Rng::SampleWithoutReplacement(size_t n, size_t k, size_t* out) {
  METALEAK_DCHECK(k <= n);
  // Floyd's algorithm: O(k) expected insertions regardless of n. After i
  // picks the table holds i keys, so a new key gets id i. Every earlier
  // pick is at most j - 1, so j itself is always new.
  thread_local FlatIdTable chosen;
  chosen.Reset(k);
  for (size_t j = n - k, i = 0; j < n; ++j, ++i) {
    const size_t t = UniformIndex(j + 1);
    if (chosen.IdOf(t) == i) {
      out[i] = t;
    } else {
      chosen.IdOf(j);
      out[i] = j;
    }
  }
}

Rng Rng::Fork() { return Rng(ForkSeed()); }

uint64_t Rng::ForkSeed() {
  // Mixing two independent draws avoids correlated child streams.
  uint64_t a = engine_();
  uint64_t b = engine_();
  return a ^ (b * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
}

}  // namespace metaleak
