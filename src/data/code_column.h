// Adaptive-width dense code storage: the bandwidth half of the encoded
// substrate.
//
// A dictionary column with K codes never needs 32 bits per cell — a u8
// column streams 1/4 of the bytes through every compare/count/histogram
// scan, and the AVX2 kernels process 32 lanes per vector instead of 8.
// CodeColumn stores one column of dense codes at the narrowest width
// that fits its dictionary, widening in place when an append overflows
// (the DeltaRelation ingest path). CodeColumnView is the non-owning
// width-tagged read view every kernel consumer dispatches on.
//
// Width-selection rule: a column with codes 0..num_codes-1 picks the
// narrowest width whose ALL-ONES value stays free — u8 iff num_codes <=
// 255, u16 iff num_codes <= 65535, else u32. The reserved all-ones
// value (CodeWidthSentinel) is the per-width "no match" marker the
// leakage translation arrays use, so a translated real column and a
// generated synthetic column over the same domain always agree on width
// and the compare kernels run symmetric narrow-vs-narrow.
//
// Forced-width floor: SetCodeWidthFloorOverride raises the minimum
// width globally. The golden width-parity suites force {u8,u16,u32} and
// assert bit-identical results; the scale bench forces u32 to measure
// the narrow-width speedup against the old full-width layout.
#ifndef METALEAK_DATA_CODE_COLUMN_H_
#define METALEAK_DATA_CODE_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/simd.h"

namespace metaleak {

/// Storage width of a dense-code column, as bytes per code.
enum class CodeWidth : uint8_t { kU8 = 1, kU16 = 2, kU32 = 4 };

/// "u8", "u16", "u32".
const char* CodeWidthName(CodeWidth width);

inline size_t CodeWidthBytes(CodeWidth width) {
  return static_cast<size_t>(width);
}

/// Largest value storable at `width` — reserved as the per-width
/// no-match sentinel by the width-selection rule.
inline uint32_t CodeWidthSentinel(CodeWidth width) {
  switch (width) {
    case CodeWidth::kU8:
      return 0xFFu;
    case CodeWidth::kU16:
      return 0xFFFFu;
    default:
      return 0xFFFFFFFFu;
  }
}

/// Narrowest width for a column whose codes lie in [0, num_codes),
/// keeping the all-ones sentinel free, and honoring the floor override.
CodeWidth CodeWidthForNumCodes(uint64_t num_codes);

/// Raises the global minimum width (width-parity tests, the u32 bench
/// baseline). Must not be called while columns are being built on other
/// threads.
void SetCodeWidthFloorOverride(CodeWidth floor);
void ClearCodeWidthFloorOverride();

/// Non-owning width-tagged view of a code column. The kernel-facing
/// currency: hot paths read codes through a view and dispatch once on
/// the width tag.
struct CodeColumnView {
  const void* data = nullptr;
  size_t size = 0;
  CodeWidth width = CodeWidth::kU32;

  const uint8_t* u8() const { return static_cast<const uint8_t*>(data); }
  const uint16_t* u16() const { return static_cast<const uint16_t*>(data); }
  const uint32_t* u32() const { return static_cast<const uint32_t*>(data); }

  /// Widened single-cell read.
  uint32_t at(size_t r) const {
    METALEAK_DCHECK(r < size);
    switch (width) {
      case CodeWidth::kU8:
        return u8()[r];
      case CodeWidth::kU16:
        return u16()[r];
      default:
        return u32()[r];
    }
  }

  /// Invokes fn with the typed pointer (const uint8_t* / const uint16_t*
  /// / const uint32_t*). The generic-lambda dispatch for loops that are
  /// width-agnostic at the source level.
  template <typename Fn>
  decltype(auto) With(Fn&& fn) const {
    switch (width) {
      case CodeWidth::kU8:
        return fn(u8());
      case CodeWidth::kU16:
        return fn(u16());
      default:
        return fn(u32());
    }
  }

  /// Subrange view over rows [lo, lo + len).
  CodeColumnView Slice(size_t lo, size_t len) const {
    METALEAK_DCHECK(lo + len <= size);
    CodeColumnView out;
    out.width = width;
    out.size = len;
    out.data = static_cast<const uint8_t*>(data) + lo * CodeWidthBytes(width);
    return out;
  }
};

/// Owning adaptive-width code column. Stores every cell at `width()`
/// bytes; set/push_back widen the whole column in place when a code
/// exceeds the current width's range (value-preserving, so widening is
/// invisible to readers going through at()/view()).
class CodeColumn {
 public:
  CodeColumn() = default;
  explicit CodeColumn(CodeWidth width) : width_(width) {}

  /// Column sized for codes in [0, num_codes) via the selection rule.
  static CodeColumn ForNumCodes(uint64_t num_codes) {
    return CodeColumn(CodeWidthForNumCodes(num_codes));
  }

  /// Widened copy of arbitrary u32 codes at the given width (codes must
  /// fit; DCHECK-enforced).
  static CodeColumn FromU32(const std::vector<uint32_t>& codes,
                            CodeWidth width);

  CodeWidth width() const { return width_; }
  size_t size() const;
  bool empty() const { return size() == 0; }

  void clear();
  void resize(size_t n);  // zero-fills new cells
  void reserve(size_t n);
  void assign(size_t n, uint32_t code);

  uint32_t at(size_t r) const { return view().at(r); }

  /// Writes one cell, widening the column first if `code` does not fit.
  void set(size_t r, uint32_t code);

  /// Appends one cell, widening the column first if `code` does not fit
  /// (the DeltaRelation widen-on-overflow path).
  void push_back(uint32_t code);

  /// Re-encodes every cell at `width` (>= current; narrowing is a bug).
  void WidenTo(CodeWidth width);

  /// Drops the contents and switches to `width`.
  void Reset(CodeWidth width);

  CodeColumnView view() const;

  /// Widened u32 copy.
  std::vector<uint32_t> ToU32() const;

  /// Invokes fn with the typed const pointer.
  template <typename Fn>
  decltype(auto) With(Fn&& fn) const {
    return view().With(std::forward<Fn>(fn));
  }

  /// Invokes fn with the typed mutable pointer. The column's size and
  /// width must not change inside fn.
  template <typename Fn>
  decltype(auto) WithMutable(Fn&& fn) {
    switch (width_) {
      case CodeWidth::kU8:
        return fn(v8_.data());
      case CodeWidth::kU16:
        return fn(v16_.data());
      default:
        return fn(v32_.data());
    }
  }

  /// Value equality (width-insensitive).
  bool operator==(const CodeColumn& other) const;
  bool operator!=(const CodeColumn& other) const {
    return !(*this == other);
  }

 private:
  // Exactly one of the three vectors (selected by width_) is active;
  // typed vectors rather than one byte buffer keep strict aliasing and
  // alignment trivially correct.
  std::vector<uint8_t> v8_;
  std::vector<uint16_t> v16_;
  std::vector<uint32_t> v32_;
  CodeWidth width_ = CodeWidth::kU32;
};

// --- Width-dispatched kernel wrappers ------------------------------------
//
// Thin adapters from CodeColumnView to the typed kernels in
// common/simd.h, plus the one counting loop every width shares. Views of
// unequal width fall back to a widened scalar compare (correct, slower) —
// the width-selection rule makes matched widths the invariant case.

/// Number of rows where a.at(r) == b.at(r). Sizes must match.
size_t CountEqualCodes(SimdLevel level, const CodeColumnView& a,
                       const CodeColumnView& b);

/// Carried fused Def 2.2/2.3 coded scan over `codes`.
void EpsilonBallMseCodedInto(SimdLevel level, const double* real,
                             const CodeColumnView& codes,
                             const double* code_numeric, double eps,
                             EpsilonBallStats* stats);

/// counts[codes.at(r)] += 1 for every row; counts has one entry per
/// code and is not cleared first.
void HistogramCodes(const CodeColumnView& codes, uint32_t* counts);

}  // namespace metaleak

#endif  // METALEAK_DATA_CODE_COLUMN_H_
