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

// Decoded (lhs..., rhs) Values of every row with no NULL among them, by
// pointer, LHS attributes in ascending index order.
std::vector<std::vector<const Value*>> TuplesOf(
    const EncodedRelation& relation, AttributeSet lhs, size_t rhs) {
  std::vector<size_t> cols = lhs.ToIndices();
  cols.push_back(rhs);
  std::vector<std::vector<const Value*>> tuples;
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    std::vector<const Value*> tuple;
    for (size_t c : cols) {
      const Value& v = relation.dictionary(c).decode(relation.code_at(r, c));
      if (v.is_null()) break;
      tuple.push_back(&v);
    }
    if (tuple.size() == cols.size()) tuples.push_back(std::move(tuple));
  }
  return tuples;
}

// Sorts the tuples lexicographically (the rhs last, for determinism) and
// scans adjacent ones; the last element is the rhs, the rest the LHS.
bool SortedTuplesHold(std::vector<std::vector<const Value*>> tuples,
                      bool strict) {
  auto less = [](const std::vector<const Value*>& a,
                 const std::vector<const Value*>& b) {
    for (size_t k = 0; k < a.size(); ++k) {
      if (!ValueEq(*a[k], *b[k])) return ValueLt(*a[k], *b[k]);
    }
    return false;
  };
  std::sort(tuples.begin(), tuples.end(), less);
  for (size_t i = 1; i < tuples.size(); ++i) {
    const std::vector<const Value*>& prev = tuples[i - 1];
    const std::vector<const Value*>& cur = tuples[i];
    const size_t width = cur.size() - 1;
    bool lhs_tie = true;
    for (size_t k = 0; k < width && lhs_tie; ++k) {
      lhs_tie = ValueEq(*prev[k], *cur[k]);
    }
    const Value& py = *prev[width];
    const Value& cy = *cur[width];
    if (lhs_tie) {
      if (!ValueEq(py, cy)) return false;
    } else if (strict) {
      if (!ValueLt(py, cy)) return false;
    } else {
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

bool ValidateOd(const EncodedRelation& relation, AttributeSet lhs,
                size_t rhs) {
  return SortedTuplesHold(TuplesOf(relation, lhs, rhs), /*strict=*/false);
}

bool ValidateOfd(const EncodedRelation& relation, AttributeSet lhs,
                 size_t rhs) {
  return SortedTuplesHold(TuplesOf(relation, lhs, rhs), /*strict=*/true);
}

}  // namespace reference
}  // namespace metaleak
