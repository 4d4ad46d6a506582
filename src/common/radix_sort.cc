#include "common/radix_sort.h"

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace metaleak {

namespace {

constexpr int kDigitBits = 11;
constexpr size_t kRadix = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kRadix - 1;
constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;

// Stable LSD sort of keys[0, n), permuting payload[0, n) alongside when
// kPayload. The scratch arrays hold n entries each; the result always
// ends in keys/payload.
template <bool kPayload>
void LsdSort(uint64_t* keys, uint32_t* payload, uint64_t* key_scratch,
             uint32_t* payload_scratch, size_t n) {
  if (n < 2) return;
  METALEAK_DCHECK(n <= std::numeric_limits<uint32_t>::max());
  thread_local std::vector<uint32_t> hist;
  hist.assign(kPasses * kRadix, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = keys[i];
    for (int p = 0; p < kPasses; ++p) {
      ++hist[p * kRadix + ((k >> (p * kDigitBits)) & kDigitMask)];
    }
  }
  uint64_t* src = keys;
  uint64_t* dst = key_scratch;
  uint32_t* psrc = payload;
  uint32_t* pdst = payload_scratch;
  for (int p = 0; p < kPasses; ++p) {
    uint32_t* offsets = hist.data() + p * kRadix;
    const int shift = p * kDigitBits;
    // The digit histogram does not depend on the order, so any key tells
    // whether every key shares this digit.
    if (offsets[(src[0] >> shift) & kDigitMask] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kRadix; ++b) {
      const uint32_t count = offsets[b];
      offsets[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = src[i];
      const uint32_t pos = offsets[(k >> shift) & kDigitMask]++;
      dst[pos] = k;
      if constexpr (kPayload) pdst[pos] = psrc[i];
    }
    std::swap(src, dst);
    if constexpr (kPayload) std::swap(psrc, pdst);
  }
  if (src != keys) {
    std::memcpy(keys, src, n * sizeof(uint64_t));
    if constexpr (kPayload) std::memcpy(payload, psrc, n * sizeof(uint32_t));
  }
}

struct RadixScratch {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> key_scratch;
  std::vector<uint32_t> rows;
};

RadixScratch& Scratch() {
  thread_local RadixScratch scratch;
  return scratch;
}

}  // namespace

void RadixSortKeys(uint64_t* keys, uint64_t* scratch, size_t n) {
  LsdSort<false>(keys, nullptr, scratch, nullptr, n);
}

void RadixSortDoubles(double* xs, size_t n) {
  RadixScratch& s = Scratch();
  s.keys.resize(n);
  s.key_scratch.resize(n);
  for (size_t i = 0; i < n; ++i) s.keys[i] = OrderedKey(xs[i]);
  RadixSortKeys(s.keys.data(), s.key_scratch.data(), n);
  for (size_t i = 0; i < n; ++i) xs[i] = FromOrderedKey(s.keys[i]);
}

uint32_t RadixRankDoubles(const double* xs, size_t n, uint32_t* ranks) {
  if (n == 0) return 0;
  RadixScratch& s = Scratch();
  s.keys.resize(n);
  s.key_scratch.resize(n);
  s.rows.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s.keys[i] = RankKey(xs[i]);
    s.rows[i] = static_cast<uint32_t>(i);
  }
  // `ranks` doubles as the row scratch: the sort leaves the rows in
  // s.rows, and only then are the ranks written.
  LsdSort<true>(s.keys.data(), s.rows.data(), s.key_scratch.data(), ranks,
                n);
  uint32_t rank = 0;
  ranks[s.rows[0]] = 0;
  for (size_t i = 1; i < n; ++i) {
    rank += s.keys[i] != s.keys[i - 1];
    ranks[s.rows[i]] = rank;
  }
  return rank + 1;
}

}  // namespace metaleak
