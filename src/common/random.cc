#include "common/random.h"

#include "common/flat_id_table.h"

namespace metaleak {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  METALEAK_DCHECK(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

size_t Rng::UniformIndex(size_t n) {
  METALEAK_DCHECK(n > 0);
  std::uniform_int_distribution<size_t> dist(0, n - 1);
  return dist(engine_);
}

double Rng::UniformDouble(double lo, double hi) {
  METALEAK_DCHECK(lo <= hi);
  if (lo == hi) return lo;
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  METALEAK_DCHECK(p >= 0.0 && p <= 1.0);
  std::bernoulli_distribution dist(p);
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
