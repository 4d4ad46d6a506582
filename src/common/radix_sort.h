// LSD radix sort over order-preserving 64-bit keys.
//
// The Monte-Carlo rounds order doubles in three places: ranking a
// real-stored LHS column for the ND/OD/OFD/DD generators, sorting the
// continuous order statistics OD and OFD assign, and sorting the
// generated values the NN-linkage estimator merges against. Each maps its
// doubles to 64-bit keys whose unsigned order is the IEEE order and sorts
// them with the one kernel below: a stable least-significant-digit radix
// sort with 11-bit digits. One read of the keys fills all six digit
// histograms, and a pass is skipped when every key shares its digit, so a
// sort is linear in n with one n-word scratch buffer.
//
// Contract: inputs are NaN-free. Generated values come from finite
// domains (MetadataPackage::RequireDomains rejects the rest) and Relation
// rejects NaN at every boundary, so every caller in the library meets it.
#ifndef METALEAK_COMMON_RADIX_SORT_H_
#define METALEAK_COMMON_RADIX_SORT_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace metaleak {

/// Key whose unsigned order is the IEEE order of NaN-free doubles, with
/// -0.0 below +0.0. A bijection: FromOrderedKey inverts it bit for bit.
inline uint64_t OrderedKey(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

inline double FromOrderedKey(uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0 ? key & ~(uint64_t{1} << 63)
                                                : ~key);
}

/// The key ranks and the generators' LHS group fold use: -0.0 shares
/// +0.0's key, because the two compare equal.
inline uint64_t RankKey(double x) { return OrderedKey(x == 0.0 ? 0.0 : x); }

/// Sorts keys[0, n) ascending. `scratch` must hold n words; its contents
/// are clobbered, so callers may reuse it once the sort returns.
void RadixSortKeys(uint64_t* keys, uint64_t* scratch, size_t n);

/// Sorts xs[0, n) ascending in the IEEE order, -0.0 before +0.0. Uses
/// thread-local scratch.
void RadixSortDoubles(double* xs, size_t n);

/// Dense ascending ranks: ranks[i] is the number of distinct values of
/// xs[0, n) below xs[i], with -0.0 and +0.0 one value. Returns the
/// distinct count. Uses thread-local scratch.
uint32_t RadixRankDoubles(const double* xs, size_t n, uint32_t* ranks);

}  // namespace metaleak

#endif  // METALEAK_COMMON_RADIX_SORT_H_
