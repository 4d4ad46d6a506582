#include "discovery/cfd_discovery.h"

#include <algorithm>
#include <cstdint>

#include "discovery/validators.h"

namespace metaleak {

namespace {

constexpr uint32_t kUnset = UINT32_MAX;

// The non-null codes of column `c` in the order of their first row.
std::vector<uint32_t> CodesByFirstRow(const EncodedRelation& relation,
                                      size_t c) {
  const CodeColumnView column = relation.column_view(c);
  std::vector<uint32_t> order;
  std::vector<bool> seen(relation.dictionary(c).num_codes(), false);
  for (size_t r = 0; r < column.size; ++r) {
    const uint32_t code = column.at(r);
    if (code != ColumnDictionary::kNullCode && !seen[code]) {
      seen[code] = true;
      order.push_back(code);
    }
  }
  return order;
}

// Whether X -> A holds on `rows`, NULL equal to NULL: every row of one X
// code carries the A code of the first. `first` is indexed by X code,
// all kUnset on entry, and left so.
bool FdHoldsOn(const std::vector<uint32_t>& rows, const CodeColumnView& x,
               const CodeColumnView& a, std::vector<uint32_t>* first) {
  size_t seen = 0;
  bool holds = true;
  for (; seen < rows.size() && holds; ++seen) {
    uint32_t& slot = (*first)[x.at(rows[seen])];
    const uint32_t code = a.at(rows[seen]);
    if (slot == kUnset) {
      slot = code;
    } else {
      holds = slot == code;
    }
  }
  for (size_t i = 0; i < seen; ++i) (*first)[x.at(rows[i])] = kUnset;
  return holds;
}

}  // namespace

Result<std::vector<ConditionalFd>> DiscoverCfds(
    PliCache* cache, const CfdDiscoveryOptions& options) {
  std::vector<ConditionalFd> out;
  const EncodedRelation& relation = cache->encoded();
  const size_t m = relation.num_columns();
  const size_t n = relation.num_rows();
  if (m == 0 || n == 0) return out;

  // Global FD verdicts, memoized: -1 unknown, else the verdict.
  std::vector<int8_t> global(m * m, -1);
  auto global_fd = [&](size_t x, size_t a) {
    int8_t& verdict = global[x * m + a];
    if (verdict < 0) verdict = ValidateFd(cache, AttributeSet::Single(x), a);
    return verdict == 1;
  };

  // --- Constant CFDs: [X=x] => A = a -----------------------------------
  for (size_t x = 0; x < m; ++x) {
    const ColumnDictionary& x_dict = relation.dictionary(x);
    if (x_dict.num_distinct() > options.max_condition_distinct) continue;
    const CodeColumnView x_codes = relation.column_view(x);
    const std::vector<uint32_t> order = CodesByFirstRow(relation, x);
    for (size_t a = 0; a < m; ++a) {
      if (a == x) continue;
      if (options.skip_global_fds && global_fd(x, a)) {
        continue;  // the whole FD holds; constants add nothing
      }
      // Per X code: the A code of its first row, its support, and
      // whether a later row carries another A code.
      const CodeColumnView a_codes = relation.column_view(a);
      std::vector<uint32_t> first_a(x_dict.num_codes(), kUnset);
      std::vector<size_t> support(x_dict.num_codes(), 0);
      std::vector<bool> impure(x_dict.num_codes(), false);
      for (size_t r = 0; r < n; ++r) {
        const uint32_t xc = x_codes.at(r);
        if (xc == ColumnDictionary::kNullCode) continue;
        const uint32_t ac = a_codes.at(r);
        ++support[xc];
        if (first_a[xc] == kUnset) {
          first_a[xc] = ac;
        } else if (first_a[xc] != ac) {
          impure[xc] = true;
        }
      }
      for (uint32_t xc : order) {
        if (impure[xc] || support[xc] < options.min_support) continue;
        if (first_a[xc] == ColumnDictionary::kNullCode) continue;
        out.push_back(ConditionalFd::Constant(
            x, x_dict.decode(xc), a,
            relation.dictionary(a).decode(first_a[xc]), support[xc]));
      }
    }
  }

  // --- Variable CFDs: [C=c] => (X -> A) ---------------------------------
  // One scoped-FD workspace, indexed by any LHS column's codes.
  uint32_t widest = 0;
  for (size_t col = 0; col < m; ++col) {
    widest = std::max(widest, relation.dictionary(col).num_codes());
  }
  std::vector<uint32_t> first(widest, kUnset);
  std::vector<uint32_t> rows;
  for (size_t c = 0; c < m; ++c) {
    const ColumnDictionary& c_dict = relation.dictionary(c);
    if (c_dict.num_distinct() > options.max_condition_distinct) continue;
    const CodeColumnView c_codes = relation.column_view(c);
    for (uint32_t cv : CodesByFirstRow(relation, c)) {
      if (c_dict.count(cv) < options.min_support) continue;
      rows.clear();
      for (size_t r = 0; r < n; ++r) {
        if (c_codes.at(r) == cv) rows.push_back(static_cast<uint32_t>(r));
      }
      for (size_t x = 0; x < m; ++x) {
        if (x == c) continue;
        const CodeColumnView x_codes = relation.column_view(x);
        for (size_t a = 0; a < m; ++a) {
          if (a == x || a == c) continue;
          if (options.skip_global_fds && global_fd(x, a)) continue;
          if (FdHoldsOn(rows, x_codes, relation.column_view(a), &first)) {
            out.push_back(ConditionalFd::Variable(c, c_dict.decode(cv),
                                                  AttributeSet::Single(x), a,
                                                  rows.size()));
          }
        }
      }
    }
  }
  return out;
}

}  // namespace metaleak
