#include "partition/pli_maintenance.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace metaleak {

MutableColumnPartition::MutableColumnPartition(const CodeColumnView& codes,
                                               uint32_t num_codes)
    : num_rows_(codes.size) {
  METALEAK_DCHECK(codes.size < UINT32_MAX);
  buckets_.resize(num_codes);
  codes.With([&](const auto* p) {
    std::vector<uint32_t> counts(num_codes, 0);
    for (size_t r = 0; r < num_rows_; ++r) ++counts[p[r]];
    for (uint32_t code = 0; code < num_codes; ++code) {
      buckets_[code].reserve(counts[code]);
    }
    for (size_t r = 0; r < num_rows_; ++r) {
      buckets_[p[r]].push_back(static_cast<PositionListIndex::Row>(r));
    }
  });
}

void MutableColumnPartition::ApplyBatch(
    const BatchEffects& effects, const std::vector<uint32_t>& deleted_codes,
    const std::vector<uint32_t>& inserted_codes) {
  const RowRemap& remap = effects.remap;
  METALEAK_DCHECK(remap.rows_before == num_rows_);
  METALEAK_DCHECK(deleted_codes.size() == effects.sorted_deletes.size());

  for (size_t i = 0; i < effects.sorted_deletes.size(); ++i) {
    std::vector<PositionListIndex::Row>& bucket = buckets_[deleted_codes[i]];
    const auto row =
        static_cast<PositionListIndex::Row>(effects.sorted_deletes[i]);
    auto it = std::lower_bound(bucket.begin(), bucket.end(), row);
    METALEAK_DCHECK(it != bucket.end() && *it == row);
    bucket.erase(it);
  }

  // Compaction shifts every surviving row id; the remap is monotone on
  // survivors, so buckets stay sorted through the rewrite.
  if (!remap.identity()) {
    for (std::vector<PositionListIndex::Row>& bucket : buckets_) {
      for (PositionListIndex::Row& r : bucket) {
        METALEAK_DCHECK(remap.old_to_new[r] != RowRemap::kDeleted);
        r = static_cast<PositionListIndex::Row>(remap.old_to_new[r]);
      }
    }
  }

  // Inserted rows take ids rows_surviving.. in append order — strictly
  // increasing and above every survivor, so push_back keeps order.
  size_t row = remap.rows_surviving;
  for (uint32_t code : inserted_codes) {
    if (code >= buckets_.size()) buckets_.resize(code + 1);
    buckets_[code].push_back(static_cast<PositionListIndex::Row>(row++));
  }
  num_rows_ = remap.rows_after;
}

void MutableColumnPartition::RenumberCodes(
    const std::vector<uint32_t>& code_remap) {
  METALEAK_DCHECK(code_remap.size() == buckets_.size());
  uint32_t canonical_codes = 1;
  for (uint32_t mapped : code_remap) {
    canonical_codes = std::max(canonical_codes, mapped + 1);
  }
  std::vector<std::vector<PositionListIndex::Row>> renumbered(
      canonical_codes);
  renumbered[ColumnDictionary::kNullCode] =
      std::move(buckets_[ColumnDictionary::kNullCode]);
  for (uint32_t code = 1; code < buckets_.size(); ++code) {
    if (code_remap[code] == ColumnDictionary::kNullCode) {
      METALEAK_DCHECK(buckets_[code].empty());  // tombstone
      continue;
    }
    renumbered[code_remap[code]] = std::move(buckets_[code]);
  }
  buckets_ = std::move(renumbered);
}

PositionListIndex MutableColumnPartition::ToPli() const {
  std::vector<uint32_t> offsets;
  offsets.push_back(0);
  uint32_t total = 0;
  for (const std::vector<PositionListIndex::Row>& bucket : buckets_) {
    if (bucket.size() >= 2) {
      total += static_cast<uint32_t>(bucket.size());
      offsets.push_back(total);
    }
  }
  std::vector<PositionListIndex::Row> rows;
  rows.reserve(total);
  for (const std::vector<PositionListIndex::Row>& bucket : buckets_) {
    if (bucket.size() >= 2) {
      rows.insert(rows.end(), bucket.begin(), bucket.end());
    }
  }
  return PositionListIndex::FromCsrArrays(std::move(rows), std::move(offsets),
                                          num_rows_);
}

PliMaintenance::PliMaintenance(const EncodedRelation& snapshot) {
  columns_.reserve(snapshot.num_columns());
  for (size_t c = 0; c < snapshot.num_columns(); ++c) {
    columns_.emplace_back(snapshot.column_view(c),
                          snapshot.dictionary(c).num_codes());
  }
}

void PliMaintenance::ApplyBatch(const BatchEffects& effects) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].ApplyBatch(effects, effects.deleted_codes[c],
                           effects.inserted_codes[c]);
  }
}

void PliMaintenance::RenumberCodes(
    const std::vector<std::vector<uint32_t>>& code_remap) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].RenumberCodes(code_remap[c]);
  }
}

}  // namespace metaleak
