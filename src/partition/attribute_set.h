// AttributeSet: a set of attribute indices as a 64-bit mask.
//
// TANE's lattice search and the FD machinery manipulate attribute subsets
// heavily; a bitmask makes subset tests, unions and iteration O(1)/O(k).
// Relations are limited to 64 attributes, far beyond any dataset in the
// paper's scope (13 attributes).
#ifndef METALEAK_PARTITION_ATTRIBUTE_SET_H_
#define METALEAK_PARTITION_ATTRIBUTE_SET_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace metaleak {

class AttributeSet {
 public:
  static constexpr size_t kMaxAttributes = 64;

  /// The empty set.
  constexpr AttributeSet() : mask_(0) {}

  /// Singleton set {index}.
  static AttributeSet Single(size_t index) {
    METALEAK_DCHECK(index < kMaxAttributes);
    return AttributeSet(uint64_t{1} << index);
  }

  /// Set from explicit indices.
  static AttributeSet Of(const std::vector<size_t>& indices) {
    AttributeSet s;
    for (size_t i : indices) s = s.With(i);
    return s;
  }

  /// The full set {0, ..., n-1}.
  static AttributeSet FullSet(size_t n) {
    METALEAK_DCHECK(n <= kMaxAttributes);
    if (n == kMaxAttributes) return AttributeSet(~uint64_t{0});
    return AttributeSet((uint64_t{1} << n) - 1);
  }

  bool empty() const { return mask_ == 0; }
  size_t size() const { return static_cast<size_t>(std::popcount(mask_)); }
  bool Contains(size_t index) const {
    return (mask_ >> index) & uint64_t{1};
  }
  bool ContainsAll(AttributeSet other) const {
    return (mask_ & other.mask_) == other.mask_;
  }
  bool Intersects(AttributeSet other) const {
    return (mask_ & other.mask_) != 0;
  }

  AttributeSet With(size_t index) const {
    METALEAK_DCHECK(index < kMaxAttributes);
    return AttributeSet(mask_ | (uint64_t{1} << index));
  }
  AttributeSet Without(size_t index) const {
    return AttributeSet(mask_ & ~(uint64_t{1} << index));
  }
  AttributeSet Union(AttributeSet other) const {
    return AttributeSet(mask_ | other.mask_);
  }
  AttributeSet Intersect(AttributeSet other) const {
    return AttributeSet(mask_ & other.mask_);
  }
  AttributeSet Minus(AttributeSet other) const {
    return AttributeSet(mask_ & ~other.mask_);
  }

  /// Member indices in ascending order.
  std::vector<size_t> ToIndices() const {
    std::vector<size_t> out;
    out.reserve(size());
    uint64_t m = mask_;
    while (m != 0) {
      out.push_back(static_cast<size_t>(std::countr_zero(m)));
      m &= m - 1;
    }
    return out;
  }

  uint64_t mask() const { return mask_; }

  /// "{0,3,5}" — for debugging and map keys.
  std::string ToString() const {
    std::string out = "{";
    bool first = true;
    for (size_t i : ToIndices()) {
      if (!first) out += ",";
      out += std::to_string(i);
      first = false;
    }
    out += "}";
    return out;
  }

  friend bool operator==(AttributeSet a, AttributeSet b) {
    return a.mask_ == b.mask_;
  }
  friend bool operator!=(AttributeSet a, AttributeSet b) {
    return a.mask_ != b.mask_;
  }
  friend bool operator<(AttributeSet a, AttributeSet b) {
    return a.mask_ < b.mask_;
  }

 private:
  explicit constexpr AttributeSet(uint64_t mask) : mask_(mask) {}
  uint64_t mask_;
};

/// OK when a relation of `num_attributes` columns fits an AttributeSet,
/// Invalid ("relation exceeds 64 attributes") otherwise. Every entry
/// point that builds a PliCache or walks the lattice checks it first, so
/// a wide relation never reaches AttributeSet::Single.
inline Status CheckAttributeCount(size_t num_attributes) {
  if (num_attributes > AttributeSet::kMaxAttributes) {
    return Status::Invalid("relation exceeds 64 attributes");
  }
  return Status::OK();
}

}  // namespace metaleak

namespace std {
template <>
struct hash<metaleak::AttributeSet> {
  size_t operator()(metaleak::AttributeSet s) const {
    return std::hash<uint64_t>{}(s.mask());
  }
};
}  // namespace std

#endif  // METALEAK_PARTITION_ATTRIBUTE_SET_H_
