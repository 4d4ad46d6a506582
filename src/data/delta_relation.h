// Mutable delta counterpart of the immutable EncodedRelation snapshot.
//
// EncodedRelation's dense-code invariant — codes 1..K assigned in
// ascending Value order — is what lets every downstream consumer compare
// codes instead of Values. That invariant is fundamentally at odds with
// mutation: an inserted value that sorts into the middle of the
// dictionary would force a global renumber of codes, code vectors, and
// every cached PLI. DeltaRelation resolves the tension by splitting the
// two concerns:
//
//   * Between publishes, new values get *append-order* codes (next free
//     slot, tombstone revival included) so applying a batch never
//     renumbers anything. A side order-index — the codes 1..K kept
//     sorted by Value — is maintained incrementally so order queries
//     (and the eventual canonicalization) still see the dense-code
//     ordering without a sort at publish time.
//   * PublishCanonical() folds the accumulated drift back into canonical
//     form: live codes are renumbered by order-index rank, zero-count
//     tombstones dropped, and the fingerprint recomputed with Encode's
//     exact mixing sequence. The published EncodedRelation is
//     bit-identical to EncodedRelation::Encode of the same rows — the
//     exactness guarantee the incremental golden tests assert.
//
// After each publish the delta re-seeds itself into the canonical code
// space, so drift only ever accumulates within one batch window.
#ifndef METALEAK_DATA_DELTA_RELATION_H_
#define METALEAK_DATA_DELTA_RELATION_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/value.h"

namespace metaleak {

/// Row-index translation for one delete+insert batch. Deletes compact
/// the surviving rows in order; inserts append after them.
struct RowRemap {
  static constexpr size_t kDeleted = static_cast<size_t>(-1);

  /// old_to_new[r] is the post-batch index of pre-batch row r, or
  /// kDeleted. Size = rows_before.
  std::vector<size_t> old_to_new;
  size_t rows_before = 0;
  /// Rows surviving the delete pass; inserted rows occupy
  /// [rows_surviving, rows_after).
  size_t rows_surviving = 0;
  size_t rows_after = 0;

  bool identity() const { return rows_before == rows_surviving; }
};

/// One mutation batch: deletes are pre-batch row indices (any order,
/// duplicates rejected), inserts are full rows in schema order. Deletes
/// apply before inserts.
struct RowBatch {
  std::vector<size_t> delete_rows;
  std::vector<std::vector<Value>> insert_rows;

  bool empty() const { return delete_rows.empty() && insert_rows.empty(); }
};

/// What a batch did, in the delta code space — everything the partition
/// maintenance and revalidation layers need without re-deriving it.
struct BatchEffects {
  RowRemap remap;

  /// Per column, aligned with the sorted unique delete list: the delta
  /// code each deleted row carried.
  std::vector<std::vector<uint32_t>> deleted_codes;
  /// Per column, aligned with insert_rows: the delta code assigned to
  /// each inserted cell.
  std::vector<std::vector<uint32_t>> inserted_codes;

  /// Sorted unique pre-batch indices the batch deleted.
  std::vector<size_t> sorted_deletes;
};

/// Result of folding the delta back into an immutable snapshot.
struct PublishResult {
  /// Canonical encoding (source() == nullptr; the caller materializes
  /// the backing Relation via Decode and re-points it).
  EncodedRelation encoded;
  /// Per column: code_remap[c][delta_code] = canonical code. Tombstoned
  /// codes map to 0 alongside NULL; live maps are injective. Cached
  /// per-column partitions renumber through this instead of rebuilding.
  std::vector<std::vector<uint32_t>> code_remap;
};

/// The mutable half of the snapshot/delta split. Not thread-safe; the
/// service layer serializes batches per session.
class DeltaRelation {
 public:
  /// Seeds the delta from a canonical snapshot (codes copied; the
  /// snapshot itself is not retained).
  explicit DeltaRelation(const EncodedRelation& snapshot);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return codes_.size(); }

  /// Current (delta-space) code column of column `c`. Stored narrow;
  /// appends widen in place when a fresh value overflows the width.
  const CodeColumn& codes(size_t c) const { return codes_[c]; }

  /// Occurrences of `code` in column `c` (0 for tombstones).
  size_t code_count(size_t c, uint32_t code) const {
    return columns_[c].counts[code];
  }

  /// Codes of column `c` sorted by decoded Value ascending — the side
  /// order-index. Excludes NULL; tombstones keep their slot until the
  /// next publish.
  const std::vector<uint32_t>& order_index(size_t c) const {
    return columns_[c].order_index;
  }

  /// Applies one delete+insert batch. Validates row indices and value
  /// types against the schema; on error the delta is unchanged.
  Result<BatchEffects> ApplyBatch(const RowBatch& batch);

  /// Renumbers live codes into canonical (Value-rank) order, drops
  /// tombstones, recomputes the fingerprint, and re-seeds the delta into
  /// the canonical space.
  PublishResult PublishCanonical();

 private:
  struct ColumnState {
    std::vector<Value> values;    // [0] = NULL, rest in append order
    std::vector<size_t> counts;   // parallel to values
    std::vector<uint32_t> order_index;  // live+tombstone codes by Value
    std::unordered_map<Value, uint32_t> lookup;  // non-null value -> code
  };

  /// Returns the code for `v` in column `c`, appending unseen values
  /// (a zero as +0.0, like Encode). Maintains the order index.
  uint32_t EncodeCell(size_t c, const Value& v);

  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<CodeColumn> codes_;  // [column], narrow delta-space codes
  std::vector<ColumnState> columns_;
};

}  // namespace metaleak

#endif  // METALEAK_DATA_DELTA_RELATION_H_
