#include "discovery/validators.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace metaleak {

bool ValidateFd(PliCache* cache, AttributeSet lhs, size_t rhs) {
  METALEAK_DCHECK(cache != nullptr);
  const PositionListIndex* x = cache->Get(lhs);
  const PositionListIndex* a = cache->Get(AttributeSet::Single(rhs));
  return x->Refines(*a);
}

double ComputeG3(PliCache* cache, AttributeSet lhs, size_t rhs) {
  METALEAK_DCHECK(cache != nullptr);
  const PositionListIndex* x = cache->Get(lhs);
  const PositionListIndex* a = cache->Get(AttributeSet::Single(rhs));
  return x->G3Error(*a);
}

size_t ComputeMaxFanout(PliCache* cache, size_t lhs, size_t rhs) {
  return ComputeMaxFanout(cache, AttributeSet::Single(lhs), rhs);
}

size_t ComputeMaxFanout(PliCache* cache, AttributeSet lhs, size_t rhs,
                        size_t bound) {
  METALEAK_DCHECK(cache != nullptr);
  const PositionListIndex* x = cache->Get(lhs);
  const PositionListIndex* a = cache->Get(AttributeSet::Single(rhs));
  return x->MaxFanout(*a, bound);
}

namespace {

// Rows with no NULL code in any of `cols`, ascending: the rows the
// multi-attribute DD check compares.
std::vector<size_t> NonNullRows(const EncodedRelation& relation,
                                const std::vector<size_t>& cols) {
  std::vector<char> keep(relation.num_rows(), 1);
  for (size_t c : cols) {
    relation.column_view(c).With([&](const auto* p) {
      for (size_t r = 0; r < keep.size(); ++r) {
        if (p[r] == ColumnDictionary::kNullCode) keep[r] = 0;
      }
    });
  }
  std::vector<size_t> rows;
  for (size_t r = 0; r < keep.size(); ++r) {
    if (keep[r]) rows.push_back(r);
  }
  return rows;
}

// Stable counting sort of `rows` by their code in `codes` (codes below
// `num_codes`) into `out`.
template <typename C>
void CountingSortRows(const std::vector<uint32_t>& rows, const C* codes,
                      uint32_t num_codes, std::vector<uint32_t>* out) {
  std::vector<uint32_t> next(static_cast<size_t>(num_codes) + 1, 0);
  for (uint32_t r : rows) ++next[codes[r] + 1];
  for (size_t k = 1; k < next.size(); ++k) next[k] += next[k - 1];
  out->resize(rows.size());
  for (uint32_t r : rows) (*out)[next[codes[r]]++] = r;
}

// OD/OFD in one pass over the rows and one walk over the lhs codes,
// O(n + D_X); `x` is an lhs column's codes or the rank fold of a wider
// LHS (LhsRanks below). first[x] is the rhs code of the first row with
// lhs code x and a non-NULL rhs; the NULL code 0 doubles as "unseen". A
// later row with lhs x and a different rhs is an lhs tie with differing
// rhs, which both rules reject. Once rhs is a function of lhs, walking
// the lhs codes ascending walks the lhs values in order (codes are
// order-preserving), so the rule reduces to the rhs codes never falling
// (OD) or strictly rising (OFD) from one seen lhs code to the next.
// Serial: the lattice already validates candidates concurrently.
template <typename X, typename Y>
bool OrderHolds(const X* x, const Y* y, size_t n, uint32_t num_lhs_codes,
                bool strict) {
  constexpr Y kNull = ColumnDictionary::kNullCode;
  std::vector<Y> first(num_lhs_codes, kNull);
  for (size_t r = 0; r < n; ++r) {
    if (x[r] == kNull || y[r] == kNull) continue;
    Y& seen = first[x[r]];
    if (seen == kNull) {
      seen = y[r];
    } else if (seen != y[r]) {
      return false;
    }
  }
  Y prev = kNull;
  for (Y cur : first) {
    if (cur == kNull) continue;
    if (cur < prev || (strict && cur == prev)) return false;
    prev = cur;
  }
  return true;
}

bool OrderHolds(const EncodedRelation& relation, size_t lhs, size_t rhs,
                bool strict) {
  const uint32_t num_lhs_codes = relation.dictionary(lhs).num_codes();
  return relation.column_view(lhs).With([&](const auto* x) {
    return relation.column_view(rhs).With([&](const auto* y) {
      return OrderHolds(x, y, relation.num_rows(), num_lhs_codes, strict);
    });
  });
}

// Every row's LHS tuple as an order-preserving dense rank: 0 for a row
// with a NULL in any LHS column, else 1..D for the D distinct tuples in
// lexicographic order (attributes ascending, the first most
// significant); an empty LHS gives every row rank 1. Each column folds
// into the running rank with two stable counting passes, which order the
// rows by (rank, code), and the distinct pairs are renumbered in that
// order: O(|lhs| (n + D)) for dictionaries of D codes. Codes are
// order-preserving, so rank order is the lexicographic Value order.
std::vector<uint32_t> LhsRanks(const EncodedRelation& relation,
                               const std::vector<size_t>& lhs,
                               uint32_t* num_ranks) {
  constexpr uint32_t kNull = ColumnDictionary::kNullCode;
  std::vector<uint32_t> rank(relation.num_rows(), 1);
  uint32_t ranks = 2;
  std::vector<uint32_t> rows(relation.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<uint32_t> by_code;
  for (size_t c : lhs) {
    relation.column_view(c).With([&](const auto* p) {
      CountingSortRows(rows, p, relation.dictionary(c).num_codes(),
                       &by_code);
      CountingSortRows(by_code, rank.data(), ranks, &rows);
      // Rows now ascend by (rank, code); a valid pair never equals the
      // (0, NULL) start, so the first one opens rank 1.
      uint32_t next = 0;
      uint32_t prev_rank = 0;
      uint32_t prev_code = kNull;
      for (uint32_t r : rows) {
        const uint32_t old = rank[r];
        const uint32_t code = p[r];
        if (old == 0 || code == kNull) {
          rank[r] = 0;
          continue;
        }
        if (old != prev_rank || code != prev_code) ++next;
        prev_rank = old;
        prev_code = code;
        rank[r] = next;
      }
      ranks = next + 1;
    });
  }
  *num_ranks = ranks;
  return rank;
}

// OD/OFD at any LHS width: one attribute reads its column in place, any
// other LHS checks its rank fold with the same pass.
bool OrderHolds(const EncodedRelation& relation, AttributeSet lhs,
                size_t rhs, bool strict) {
  const std::vector<size_t> xs = lhs.ToIndices();
  if (xs.size() == 1) return OrderHolds(relation, xs[0], rhs, strict);
  uint32_t num_ranks = 0;
  const std::vector<uint32_t> ranks = LhsRanks(relation, xs, &num_ranks);
  return relation.column_view(rhs).With([&](const auto* y) {
    return OrderHolds(ranks.data(), y, relation.num_rows(), num_ranks,
                      strict);
  });
}

}  // namespace

bool ValidateOd(const Relation& relation, size_t lhs, size_t rhs) {
  return ValidateOd(EncodedRelation::Encode(relation), lhs, rhs);
}

bool ValidateOfd(const Relation& relation, size_t lhs, size_t rhs) {
  return ValidateOfd(EncodedRelation::Encode(relation), lhs, rhs);
}

bool ValidateOd(const EncodedRelation& relation, size_t lhs, size_t rhs) {
  return OrderHolds(relation, lhs, rhs, /*strict=*/false);
}

bool ValidateOfd(const EncodedRelation& relation, size_t lhs, size_t rhs) {
  return OrderHolds(relation, lhs, rhs, /*strict=*/true);
}

bool ValidateOd(const EncodedRelation& relation, AttributeSet lhs,
                size_t rhs) {
  return OrderHolds(relation, lhs, rhs, /*strict=*/false);
}

bool ValidateOfd(const EncodedRelation& relation, AttributeSet lhs,
                 size_t rhs) {
  return OrderHolds(relation, lhs, rhs, /*strict=*/true);
}

namespace {

// A DD window needs an epsilon that orders against a gap: a NaN compares
// false with every one, so its window would never close.
Status CheckEpsilon(double eps) {
  if (std::isnan(eps) || eps < 0.0) {
    return Status::Invalid(
        "differential epsilon must be a non-negative number");
  }
  return Status::OK();
}

// Sliding-window scan over points sorted by x (`rows[k]` is the row of
// point k): every point j pairs with the earlier points within `eps` on
// x, whose smallest and largest y the two deques hold (the smallest is
// tried first). The scan stops at the first pair whose y gap exceeds
// `max_delta`.
DifferentialCheck MinimalDeltaScan(
    const std::vector<std::pair<double, double>>& pts,
    const std::vector<uint32_t>& rows, double eps, double max_delta) {
  using RowPair = PositionListIndex::RowPair;
  DifferentialCheck out;
  std::deque<size_t> min_dq;
  std::deque<size_t> max_dq;
  size_t lo = 0;
  for (size_t j = 0; j < pts.size(); ++j) {
    while (lo < j && pts[j].first - pts[lo].first > eps) {
      if (!min_dq.empty() && min_dq.front() == lo) min_dq.pop_front();
      if (!max_dq.empty() && max_dq.front() == lo) max_dq.pop_front();
      ++lo;
    }
    if (!min_dq.empty()) {
      const double gap = pts[j].second - pts[min_dq.front()].second;
      if (gap > max_delta) {
        out.witness = RowPair{rows[min_dq.front()], rows[j]};
        return out;
      }
      out.delta = std::max(out.delta, gap);
    }
    if (!max_dq.empty()) {
      const double gap = pts[max_dq.front()].second - pts[j].second;
      if (gap > max_delta) {
        out.witness = RowPair{rows[max_dq.front()], rows[j]};
        return out;
      }
      out.delta = std::max(out.delta, gap);
    }
    while (!min_dq.empty() && pts[min_dq.back()].second >= pts[j].second) {
      min_dq.pop_back();
    }
    min_dq.push_back(j);
    while (!max_dq.empty() && pts[max_dq.back()].second <= pts[j].second) {
      max_dq.pop_back();
    }
    max_dq.push_back(j);
  }
  return out;
}

}  // namespace

Result<DifferentialCheck> CheckDifferential(const EncodedRelation& relation,
                                            size_t lhs, size_t rhs,
                                            double eps, double max_delta) {
  if (lhs >= relation.num_columns() || rhs >= relation.num_columns()) {
    return Status::OutOfRange("attribute index out of range");
  }
  METALEAK_RETURN_NOT_OK(CheckEpsilon(eps));
  // Decode each distinct value to a double once; NaN marks non-numeric
  // entries, which are a type error in any row whose partner is
  // non-null.
  const std::vector<double> xt = relation.dictionary(lhs).NumericByCode();
  const std::vector<double> yt = relation.dictionary(rhs).NumericByCode();
  // Rows ordered by (lhs code, rhs code, row id): a stable counting pass
  // on the rhs codes, then one on the lhs codes. Codes are
  // order-preserving, so the points come out sorted by x, and the window
  // pairs (hence the delta) are those of a sort by value.
  std::vector<uint32_t> rows;
  std::vector<std::pair<double, double>> pts;
  const bool numeric = relation.column_view(lhs).With([&](const auto* x) {
    return relation.column_view(rhs).With([&](const auto* y) {
      std::vector<uint32_t> pairs;
      pairs.reserve(relation.num_rows());
      for (size_t r = 0; r < relation.num_rows(); ++r) {
        if (x[r] == ColumnDictionary::kNullCode ||
            y[r] == ColumnDictionary::kNullCode) {
          continue;
        }
        if (std::isnan(xt[x[r]]) || std::isnan(yt[y[r]])) return false;
        pairs.push_back(static_cast<uint32_t>(r));
      }
      std::vector<uint32_t> by_rhs;
      CountingSortRows(pairs, y, relation.dictionary(rhs).num_codes(),
                       &by_rhs);
      CountingSortRows(by_rhs, x, relation.dictionary(lhs).num_codes(),
                       &rows);
      pts.reserve(rows.size());
      for (uint32_t r : rows) pts.emplace_back(xt[x[r]], yt[y[r]]);
      return true;
    });
  });
  if (!numeric) {
    return Status::TypeError(
        "differential dependencies require numeric attributes");
  }
  return MinimalDeltaScan(pts, rows, eps, max_delta);
}

Result<double> ComputeMinimalDelta(const Relation& relation, size_t lhs,
                                   size_t rhs, double eps) {
  return ComputeMinimalDelta(EncodedRelation::Encode(relation), lhs, rhs,
                             eps);
}

Result<double> ComputeMinimalDelta(const EncodedRelation& relation,
                                   size_t lhs, size_t rhs, double eps) {
  METALEAK_ASSIGN_OR_RETURN(
      DifferentialCheck check,
      CheckDifferential(relation, lhs, rhs, eps,
                        std::numeric_limits<double>::infinity()));
  return check.delta;
}

Result<double> ComputeMinimalDelta(const EncodedRelation& relation,
                                   AttributeSet lhs,
                                   const std::vector<double>& eps,
                                   size_t rhs) {
  std::vector<size_t> xs = lhs.ToIndices();
  if (xs.size() != eps.size()) {
    return Status::Invalid("epsilon list must match the LHS arity");
  }
  if (xs.size() == 1) {
    return ComputeMinimalDelta(relation, xs[0], rhs, eps[0]);
  }
  for (size_t a : xs) {
    if (a >= relation.num_columns()) {
      return Status::OutOfRange("attribute index out of range");
    }
  }
  if (rhs >= relation.num_columns()) {
    return Status::OutOfRange("attribute index out of range");
  }
  for (double e : eps) METALEAK_RETURN_NOT_OK(CheckEpsilon(e));
  // Qualifying rows flattened as (lhs numerics..., rhs numeric). A tuple
  // pair is in the conjunctive window when every lhs coordinate differs
  // by at most its eps; the minimal delta is the largest rhs gap over
  // the window.
  const size_t width = xs.size() + 1;
  std::vector<size_t> cols = xs;
  cols.push_back(rhs);
  const std::vector<size_t> rows = NonNullRows(relation, cols);
  const size_t n = rows.size();
  std::vector<double> flat(n * width);
  for (size_t k = 0; k < width; ++k) {
    const std::vector<double> table =
        relation.dictionary(cols[k]).NumericByCode();
    const bool numeric = relation.column_view(cols[k]).With([&](const auto* p) {
      for (size_t i = 0; i < n; ++i) {
        const double v = table[p[rows[i]]];
        if (std::isnan(v)) return false;
        flat[i * width + k] = v;
      }
      return true;
    });
    if (!numeric) {
      return Status::TypeError(
          "differential dependencies require numeric attributes");
    }
  }
  if (n < 2) return 0.0;
  // The conjunctive window has no 1-D sort that makes it contiguous, so
  // every unordered pair is checked directly.
  double delta = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double* ti = flat.data() + i * width;
    for (size_t j = i + 1; j < n; ++j) {
      const double* tj = flat.data() + j * width;
      bool within = true;
      for (size_t k = 0; k + 1 < width; ++k) {
        if (std::fabs(ti[k] - tj[k]) > eps[k]) {
          within = false;
          break;
        }
      }
      if (!within) continue;
      delta = std::max(delta, std::fabs(ti[width - 1] - tj[width - 1]));
    }
  }
  return delta;
}

Result<bool> ValidateDependency(const Relation& relation,
                                const Dependency& dep) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return ValidateDependency(encoded, dep);
}

Result<bool> ValidateDependency(const EncodedRelation& relation,
                                const Dependency& dep) {
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(relation.num_columns()));
  PliCache cache(&relation);
  return ValidateDependency(&cache, dep);
}

Result<bool> ValidateDependency(PliCache* cache, const Dependency& dep) {
  METALEAK_DCHECK(cache != nullptr);
  const EncodedRelation& relation = cache->encoded();
  size_t n = relation.num_columns();
  if (dep.rhs >= n) return Status::OutOfRange("RHS attribute out of range");
  for (size_t i : dep.lhs.ToIndices()) {
    if (i >= n) return Status::OutOfRange("LHS attribute out of range");
  }
  switch (dep.kind) {
    case DependencyKind::kFunctional:
      return ValidateFd(cache, dep.lhs, dep.rhs);
    case DependencyKind::kApproximateFunctional:
      return ComputeG3(cache, dep.lhs, dep.rhs) <= dep.g3_error;
    case DependencyKind::kNumerical:
      return ComputeMaxFanout(cache, dep.lhs, dep.rhs, dep.max_fanout) <=
             dep.max_fanout;
    case DependencyKind::kOrder:
      return ValidateOd(relation, dep.lhs, dep.rhs);
    case DependencyKind::kOrderedFunctional:
      return ValidateOfd(relation, dep.lhs, dep.rhs);
    case DependencyKind::kDifferential: {
      std::vector<double> eps = dep.lhs_epsilons;
      if (eps.empty()) {
        eps.assign(dep.lhs.size(), dep.lhs_epsilon);
      }
      METALEAK_ASSIGN_OR_RETURN(
          double delta, ComputeMinimalDelta(relation, dep.lhs, eps, dep.rhs));
      return delta <= dep.rhs_delta;
    }
  }
  return Status::Invalid("unknown dependency kind");
}

Result<std::vector<bool>> ValidateDependencies(const Relation& relation,
                                               const DependencySet& deps) {
  EncodedRelation encoded = EncodedRelation::Encode(relation);
  return ValidateDependencies(encoded, deps);
}

Result<std::vector<bool>> ValidateDependencies(
    const EncodedRelation& relation, const DependencySet& deps) {
  METALEAK_RETURN_NOT_OK(CheckAttributeCount(relation.num_columns()));
  PliCache cache(&relation);
  std::vector<bool> verdicts;
  verdicts.reserve(deps.size());
  for (const Dependency& d : deps) {
    METALEAK_ASSIGN_OR_RETURN(bool ok, ValidateDependency(&cache, d));
    verdicts.push_back(ok);
  }
  return verdicts;
}

}  // namespace metaleak
