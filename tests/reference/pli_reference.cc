#include "reference/pli_reference.h"

#include <unordered_map>

namespace metaleak {
namespace reference {

namespace {

using Cluster = PositionListIndex::Cluster;

// Hash for a row projection used by PliFromColumns.
struct RowKey {
  std::vector<Value> values;
  friend bool operator==(const RowKey& a, const RowKey& b) {
    return a.values == b.values;
  }
};

struct RowKeyHash {
  size_t operator()(const RowKey& k) const {
    size_t h = 0x811C9DC5u;
    for (const Value& v : k.values) {
      h ^= v.Hash();
      h *= 0x01000193u;
    }
    return h;
  }
};

// Flattens the groups of two or more rows into the CSR arena, in the
// map's iteration order.
template <typename Map>
PositionListIndex FromGroups(Map& groups, size_t num_rows) {
  std::vector<PositionListIndex::Row> rows;
  std::vector<uint32_t> offsets = {0};
  for (auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    for (size_t row : members) {
      rows.push_back(static_cast<PositionListIndex::Row>(row));
    }
    offsets.push_back(static_cast<uint32_t>(rows.size()));
  }
  return PositionListIndex::FromCsrArrays(std::move(rows),
                                          std::move(offsets), num_rows);
}

}  // namespace

PositionListIndex PliFromColumn(const std::vector<Value>& column) {
  std::unordered_map<Value, Cluster> groups;
  groups.reserve(column.size());
  for (size_t r = 0; r < column.size(); ++r) {
    groups[column[r]].push_back(r);
  }
  return FromGroups(groups, column.size());
}

PositionListIndex PliFromColumns(const Relation& relation,
                                 const std::vector<size_t>& columns) {
  if (columns.size() == 1) {
    return PliFromColumn(relation.column(columns[0]));
  }
  std::unordered_map<RowKey, Cluster, RowKeyHash> groups;
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    RowKey key;
    key.values.reserve(columns.size());
    for (size_t c : columns) key.values.push_back(relation.at(r, c));
    groups[std::move(key)].push_back(r);
  }
  return FromGroups(groups, relation.num_rows());
}

}  // namespace reference
}  // namespace metaleak
