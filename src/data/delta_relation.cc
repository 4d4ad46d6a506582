#include "data/delta_relation.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"

namespace metaleak {

DeltaRelation::DeltaRelation(const EncodedRelation& snapshot)
    : schema_(snapshot.schema()), num_rows_(snapshot.num_rows()) {
  const size_t m = snapshot.num_columns();
  codes_.reserve(m);
  columns_.reserve(m);
  for (size_t c = 0; c < m; ++c) {
    codes_.push_back(snapshot.column(c));
    const ColumnDictionary& dict = snapshot.dictionary(c);
    ColumnState state;
    state.values.reserve(dict.num_codes());
    state.counts.reserve(dict.num_codes());
    for (uint32_t code = 0; code < dict.num_codes(); ++code) {
      state.values.push_back(dict.decode(code));
      state.counts.push_back(dict.count(code));
    }
    // A canonical snapshot lists codes 1..K in ascending Value order, so
    // the seeded order index is the identity walk.
    state.order_index.reserve(dict.num_codes() - 1);
    state.lookup.reserve(dict.num_codes());
    for (uint32_t code = 1; code < dict.num_codes(); ++code) {
      state.order_index.push_back(code);
      state.lookup.emplace(state.values[code], code);
    }
    columns_.push_back(std::move(state));
  }
}

uint32_t DeltaRelation::EncodeCell(size_t c, const Value& v) {
  if (v.is_null()) return ColumnDictionary::kNullCode;
  ColumnState& state = columns_[c];
  auto it = state.lookup.find(v);
  if (it != state.lookup.end()) return it->second;
  const uint32_t code = static_cast<uint32_t>(state.values.size());
  // -0.0 and +0.0 are one value; Encode represents it by +0.0.
  const bool zero = v.is_double() && v.AsDouble() == 0.0;
  state.values.push_back(zero ? Value::Real(0.0) : v);
  state.counts.push_back(0);
  // Keep the side order-index sorted by decoded Value: binary search for
  // the rank, O(K) vector insert. This is the structure that lets
  // PublishCanonical renumber by rank without sorting, and keeps order
  // queries valid mid-batch despite append-order codes.
  auto pos = std::lower_bound(
      state.order_index.begin(), state.order_index.end(), v,
      [&](uint32_t lhs, const Value& rhs) { return state.values[lhs] < rhs; });
  state.order_index.insert(pos, code);
  state.lookup.emplace(state.values[code], code);
  return code;
}

Result<BatchEffects> DeltaRelation::ApplyBatch(const RowBatch& batch) {
  const size_t m = num_columns();
  // Validate everything before mutating any state.
  std::vector<size_t> deletes = batch.delete_rows;
  std::sort(deletes.begin(), deletes.end());
  if (!deletes.empty()) {
    if (deletes.back() >= num_rows_) {
      return Status::OutOfRange("delete row " +
                                std::to_string(deletes.back()) +
                                " out of range for " +
                                std::to_string(num_rows_) + " rows");
    }
    if (std::adjacent_find(deletes.begin(), deletes.end()) != deletes.end()) {
      return Status::Invalid("duplicate delete row in batch");
    }
  }
  for (const std::vector<Value>& row : batch.insert_rows) {
    if (row.size() != m) {
      return Status::Invalid("insert row has " + std::to_string(row.size()) +
                             " cells, schema has " + std::to_string(m));
    }
    for (size_t c = 0; c < m; ++c) {
      if (!ValueMatchesType(row[c], schema_.attribute(c).type)) {
        return Status::Invalid("insert value type mismatch in attribute '" +
                               schema_.attribute(c).name + "'");
      }
      METALEAK_RETURN_NOT_OK(CheckNotNaN(row[c], schema_.attribute(c)));
    }
  }

  BatchEffects effects;
  effects.sorted_deletes = std::move(deletes);
  effects.deleted_codes.assign(m, {});
  effects.inserted_codes.assign(m, {});

  const size_t rows_before = num_rows_;
  const size_t rows_surviving = rows_before - effects.sorted_deletes.size();
  const size_t rows_after = rows_surviving + batch.insert_rows.size();
  effects.remap.rows_before = rows_before;
  effects.remap.rows_surviving = rows_surviving;
  effects.remap.rows_after = rows_after;
  effects.remap.old_to_new.assign(rows_before, RowRemap::kDeleted);
  {
    size_t next = 0;
    auto del = effects.sorted_deletes.begin();
    for (size_t r = 0; r < rows_before; ++r) {
      if (del != effects.sorted_deletes.end() && *del == r) {
        ++del;
        continue;
      }
      effects.remap.old_to_new[r] = next++;
    }
    METALEAK_DCHECK(next == rows_surviving);
  }

  // Delete pass: record codes, decrement counts (a count reaching 0
  // leaves a tombstone until the next publish).
  for (size_t c = 0; c < m; ++c) {
    ColumnState& state = columns_[c];
    effects.deleted_codes[c].reserve(effects.sorted_deletes.size());
    for (size_t r : effects.sorted_deletes) {
      const uint32_t code = codes_[c].at(r);
      effects.deleted_codes[c].push_back(code);
      --state.counts[code];
    }
  }

  // Compact the surviving rows in order (shared remap across columns).
  if (!effects.sorted_deletes.empty()) {
    for (size_t c = 0; c < m; ++c) {
      codes_[c].WithMutable([&](auto* codes) {
        size_t next = 0;
        for (size_t r = 0; r < rows_before; ++r) {
          if (effects.remap.old_to_new[r] == RowRemap::kDeleted) continue;
          codes[next++] = codes[r];
        }
        METALEAK_DCHECK(next == rows_surviving);
      });
      codes_[c].resize(rows_surviving);
    }
  }

  // Insert pass: encode cells (appending dictionary slots, or reviving a
  // tombstone's), count them, append codes.
  for (size_t c = 0; c < m; ++c) {
    effects.inserted_codes[c].reserve(batch.insert_rows.size());
    codes_[c].reserve(rows_after);
  }
  for (const std::vector<Value>& row : batch.insert_rows) {
    for (size_t c = 0; c < m; ++c) {
      const uint32_t code = EncodeCell(c, row[c]);
      ++columns_[c].counts[code];
      effects.inserted_codes[c].push_back(code);
      codes_[c].push_back(code);
    }
  }
  num_rows_ = rows_after;
  return effects;
}

PublishResult DeltaRelation::PublishCanonical() {
  const size_t m = num_columns();
  PublishResult out;
  out.code_remap.resize(m);
  std::vector<CodeColumn> canonical_codes(m);
  std::vector<ColumnDictionary> dicts;
  dicts.reserve(m);

  for (size_t c = 0; c < m; ++c) {
    ColumnState& state = columns_[c];
    // Rank walk over the order index: live codes get canonical codes
    // 1..K in ascending Value order; tombstones fold into 0 (no row
    // carries them, so the shared slot is never dereferenced).
    std::vector<uint32_t>& remap = out.code_remap[c];
    remap.assign(state.values.size(), ColumnDictionary::kNullCode);
    std::vector<Value> canon_values;
    std::vector<size_t> canon_counts;
    canon_values.reserve(state.order_index.size() + 1);
    canon_counts.reserve(state.order_index.size() + 1);
    canon_values.push_back(Value::Null());
    canon_counts.push_back(state.counts[ColumnDictionary::kNullCode]);
    uint32_t next = 1;
    for (uint32_t code : state.order_index) {
      if (state.counts[code] == 0) continue;
      remap[code] = next++;
      canon_values.push_back(state.values[code]);
      canon_counts.push_back(state.counts[code]);
    }
    dicts.push_back(ColumnDictionary::FromSortedParts(
        std::move(canon_values), std::move(canon_counts)));

    // Publishing re-picks the canonical width from the live dictionary,
    // so a delta that widened mid-batch narrows back when possible.
    const size_t num_canon_codes = dicts.back().num_codes();
    CodeColumn& codes = canonical_codes[c];
    codes.Reset(CodeWidthForNumCodes(num_canon_codes));
    codes.reserve(codes_[c].size());
    const CodeColumnView delta_view = codes_[c].view();
    for (size_t r = 0; r < delta_view.size; ++r) {
      codes.push_back(remap[delta_view.at(r)]);
    }
  }

  out.encoded = EncodedRelation::FromParts(schema_, std::move(canonical_codes),
                                           std::move(dicts), nullptr);
  // Re-seed into the canonical space so drift only accumulates within a
  // single batch window.
  *this = DeltaRelation(out.encoded);
  return out;
}

}  // namespace metaleak
