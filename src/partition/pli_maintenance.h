// In-place CSR PLI maintenance for batched row insert/delete.
//
// A PositionListIndex is immutable by design — every cached consumer
// (probe tables, intersections) relies on that. The maintenance layer
// therefore keeps a *mutable delta form* per column — one sorted row
// bucket per code, singletons included — applies batches to it, and
// emits an immutable CSR PLI on demand that is bit-identical to
// PositionListIndex::FromCodes over the same codes: clusters in
// ascending code order, rows ascending, singletons stripped at emission
// (not in the buckets, so a bucket growing from 1 to 2 rows surfaces as
// a new cluster without re-scanning the column).
//
// Cost model: an insert-only batch is O(batch size); a batch with
// deletes pays one O(N) remap pass (every surviving row id shifts under
// compaction) — still allocation-light and far cheaper than the
// O(N log N) re-encode + rebuild it replaces.
#ifndef METALEAK_PARTITION_PLI_MAINTENANCE_H_
#define METALEAK_PARTITION_PLI_MAINTENANCE_H_

#include <cstdint>
#include <vector>

#include "data/delta_relation.h"
#include "partition/position_list_index.h"

namespace metaleak {

/// Mutable per-column partition state: buckets_[code] holds every row
/// carrying `code`, ascending. Codes are in the owning DeltaRelation's
/// space; RenumberCodes realigns after each canonical publish.
class MutableColumnPartition {
 public:
  /// Seeds from a column's codes, read at their stored width (one
  /// bucket per code).
  MutableColumnPartition(const CodeColumnView& codes, uint32_t num_codes);

  size_t num_rows() const { return num_rows_; }
  size_t num_codes() const { return buckets_.size(); }

  /// Applies one batch, mirroring DeltaRelation::ApplyBatch for this
  /// column: `deleted_codes` aligns with `effects.sorted_deletes`,
  /// `inserted_codes` with the appended rows. New codes grow the bucket
  /// table on demand.
  void ApplyBatch(const BatchEffects& effects,
                  const std::vector<uint32_t>& deleted_codes,
                  const std::vector<uint32_t>& inserted_codes);

  /// Realigns buckets after DeltaRelation::PublishCanonical:
  /// `code_remap[old] = canonical` with tombstones folded to 0 (their
  /// buckets are empty by definition).
  void RenumberCodes(const std::vector<uint32_t>& code_remap);

  /// Emits the immutable CSR PLI — bit-identical to
  /// PositionListIndex::FromCodes(codes, num_codes) of the current state.
  PositionListIndex ToPli() const;

 private:
  std::vector<std::vector<PositionListIndex::Row>> buckets_;
  size_t num_rows_ = 0;
};

/// All columns of one relation, batch-applied together.
class PliMaintenance {
 public:
  explicit PliMaintenance(const EncodedRelation& snapshot);

  size_t num_columns() const { return columns_.size(); }

  /// Applies the effects of one DeltaRelation batch to every column.
  void ApplyBatch(const BatchEffects& effects);

  /// Realigns every column after a canonical publish.
  void RenumberCodes(const std::vector<std::vector<uint32_t>>& code_remap);

  /// Emits column `c`'s PLI in canonical form.
  PositionListIndex ToPli(size_t c) const { return columns_[c].ToPli(); }

 private:
  std::vector<MutableColumnPartition> columns_;
};

}  // namespace metaleak

#endif  // METALEAK_PARTITION_PLI_MAINTENANCE_H_
