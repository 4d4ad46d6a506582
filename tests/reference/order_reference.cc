#include "reference/order_reference.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace metaleak {
namespace reference {

namespace {

// Non-null (lhs, rhs) cells, by pointer: the oracle compares Values but
// never copies them.
using ValuePairs = std::vector<std::pair<const Value*, const Value*>>;

bool ValueEq(const Value& a, const Value& b) { return a == b; }
bool ValueLt(const Value& a, const Value& b) { return a < b; }

// Non-null (lhs, rhs) pairs of `relation`.
ValuePairs PairsOf(const Relation& relation, size_t lhs, size_t rhs) {
  ValuePairs pairs;
  const std::vector<Value>& x = relation.column(lhs);
  const std::vector<Value>& y = relation.column(rhs);
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (x[r].is_null() || y[r].is_null()) continue;
    pairs.emplace_back(&x[r], &y[r]);
  }
  return pairs;
}

// Non-null (lhs, rhs) pairs of `relation`, decoded through the
// dictionaries.
ValuePairs PairsOf(const EncodedRelation& relation, size_t lhs,
                   size_t rhs) {
  ValuePairs pairs;
  const ColumnDictionary& dx = relation.dictionary(lhs);
  const ColumnDictionary& dy = relation.dictionary(rhs);
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    const Value& x = dx.decode(relation.code_at(r, lhs));
    const Value& y = dy.decode(relation.code_at(r, rhs));
    if (x.is_null() || y.is_null()) continue;
    pairs.emplace_back(&x, &y);
  }
  return pairs;
}

// Sorts the pairs by lhs (then rhs, for determinism) and scans adjacent
// ones; `strict` selects the OFD rule.
bool SortedPairsHold(ValuePairs pairs, bool strict) {
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    if (!ValueEq(*a.first, *b.first)) return ValueLt(*a.first, *b.first);
    return ValueLt(*a.second, *b.second);
  });
  for (size_t i = 1; i < pairs.size(); ++i) {
    const Value& px = *pairs[i - 1].first;
    const Value& py = *pairs[i - 1].second;
    const Value& cx = *pairs[i].first;
    const Value& cy = *pairs[i].second;
    if (ValueEq(px, cx)) {
      // lhs tie: both directions of the implication force rhs equality.
      if (!ValueEq(py, cy)) return false;
    } else if (strict) {
      // Strict order preservation.
      if (!ValueLt(py, cy)) return false;
    } else {
      // lhs strictly increased: rhs must not decrease.
      if (ValueLt(cy, py)) return false;
    }
  }
  return true;
}

}  // namespace

bool ValidateOd(const Relation& relation, size_t lhs, size_t rhs) {
  return SortedPairsHold(PairsOf(relation, lhs, rhs), /*strict=*/false);
}

bool ValidateOd(const EncodedRelation& relation, size_t lhs, size_t rhs) {
  return SortedPairsHold(PairsOf(relation, lhs, rhs), /*strict=*/false);
}

bool ValidateOfd(const Relation& relation, size_t lhs, size_t rhs) {
  return SortedPairsHold(PairsOf(relation, lhs, rhs), /*strict=*/true);
}

bool ValidateOfd(const EncodedRelation& relation, size_t lhs, size_t rhs) {
  return SortedPairsHold(PairsOf(relation, lhs, rhs), /*strict=*/true);
}

}  // namespace reference
}  // namespace metaleak
