#include "reference/encode_reference.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace metaleak {
namespace reference {

EncodedRelation Encode(const Relation& relation) {
  const size_t m = relation.num_columns();
  std::vector<CodeColumn> columns(m);
  std::vector<ColumnDictionary> dicts;
  dicts.reserve(m);

  for (size_t c = 0; c < m; ++c) {
    const std::vector<Value>& column = relation.column(c);

    // Sorted distinct non-null values; Value's total order is strict
    // within a uniformly typed column, so codes are order-preserving.
    std::vector<Value> distinct;
    distinct.reserve(column.size());
    for (const Value& v : column) {
      if (v.is_null()) continue;
      // -0.0 and +0.0 are one value, represented by +0.0.
      const bool zero = v.is_double() && v.AsDouble() == 0.0;
      distinct.push_back(zero ? Value::Real(0.0) : v);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());

    std::vector<Value> values;
    values.reserve(distinct.size() + 1);
    values.push_back(Value::Null());  // reserved code 0
    for (Value& v : distinct) values.push_back(std::move(v));
    std::vector<size_t> counts(values.size(), 0);

    CodeColumn& codes = columns[c];
    codes.Reset(CodeWidthForNumCodes(values.size()));
    codes.reserve(column.size());
    const auto begin = values.begin() + 1;
    const auto end = values.end();
    for (const Value& v : column) {
      uint32_t code = ColumnDictionary::kNullCode;
      if (!v.is_null()) {
        auto it = std::lower_bound(begin, end, v);
        METALEAK_DCHECK(it != end && *it == v);
        code = static_cast<uint32_t>(it - values.begin());
      }
      codes.push_back(code);
      ++counts[code];
    }
    dicts.push_back(
        ColumnDictionary::FromSortedParts(std::move(values), std::move(counts)));
  }
  return EncodedRelation::FromParts(relation.schema(), std::move(columns),
                                    std::move(dicts), &relation);
}

}  // namespace reference
}  // namespace metaleak
