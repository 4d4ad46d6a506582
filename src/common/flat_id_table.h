// FlatIdTable: numbers 64-bit keys by first occurrence.
//
// Three loops need this: Floyd's sampler (is this index new?), the
// generators' composite-LHS fold and PositionListIndex::FromEncoded's
// multi-column fold (which group does this key belong to?). All know a
// bound on the distinct keys before they start, so the table is sized
// once per use and never grows: linear probing over a power-of-two array
// of ids with Fibonacci hashing, and each id's key in a dense array, so a
// slot costs four bytes. Reset() empties it in O(bound), which lets one
// thread-local table serve every call without allocating once it has
// reached its largest size.
#ifndef METALEAK_COMMON_FLAT_ID_TABLE_H_
#define METALEAK_COMMON_FLAT_ID_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace metaleak {

class FlatIdTable {
 public:
  /// Empties the table and sizes it for up to `max_keys` distinct keys,
  /// at load factor at most 1/2. Requires max_keys < 2^31.
  void Reset(size_t max_keys) {
    const size_t capacity = std::bit_ceil(std::max<size_t>(16, 2 * max_keys));
    slots_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    keys_.clear();
  }

  /// The id of `key`: the number of distinct keys seen before its first
  /// occurrence since Reset(). A new key therefore gets id size().
  uint32_t IdOf(uint64_t key) {
    for (size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;;
         i = (i + 1) & mask_) {
      const uint32_t id = slots_[i];
      if (id == kEmpty) {
        slots_[i] = size();
        keys_.push_back(key);
        return slots_[i];
      }
      if (keys_[id] == key) return id;
    }
  }

  /// Distinct keys seen since Reset().
  uint32_t size() const { return static_cast<uint32_t>(keys_.size()); }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  std::vector<uint32_t> slots_;  // id per slot, kEmpty when free
  std::vector<uint64_t> keys_;   // id -> key
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace metaleak

#endif  // METALEAK_COMMON_FLAT_ID_TABLE_H_
