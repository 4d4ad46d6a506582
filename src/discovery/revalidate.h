// Revalidation: re-profile a changed relation, taking over the failures
// that a surviving witness still proves.
//
// The lattice search's output is a pure function of the per-candidate
// verdict function, so a re-run that substitutes provably-unchanged
// verdicts from the previous run produces a bit-identical DependencySet.
// One rule decides which verdicts carry over (LatticeReuse):
//
//   A failed, non-emitting FD or single-attribute DD verdict is reused
//   while both rows of its witness survive the window and the validator's
//   WitnessViolates confirms them on the new rows. FD: the rows keep
//   their values, so they still agree on X and differ on A, whatever else
//   the batches touched. DD: their LHS gap must be within the new epsilon
//   and their RHS gap over the new bound (both scale with the attribute
//   ranges), so the minimal delta still exceeds the bound.
//
// Every other candidate is validated again: holds verdicts, AFD-mode
// failures (g3 moves with every row added or removed, and a failure may
// turn into an AFD), multi-attribute DDs (they name no witness), and all
// OD, OFD and ND candidates.
//
// Every reused verdict is recorded with its witness translated into the
// new snapshot's row ids (DeltaTouch::RemapRow), so the next window reads
// the rows it names.
#ifndef METALEAK_DISCOVERY_REVALIDATE_H_
#define METALEAK_DISCOVERY_REVALIDATE_H_

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/delta_relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/lattice.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"

namespace metaleak {

/// The rows one batch window (all batches applied since the last
/// profiled snapshot) deleted, enough to follow a surviving row to its
/// new id.
struct DeltaTouch {
  /// Each batch's sorted unique deleted rows, in batch order and in
  /// that batch's pre-batch row ids (empty batches are skipped).
  std::vector<std::vector<size_t>> batch_deletes;

  /// An empty window. A window records rows, not columns, so
  /// `num_columns` is unused.
  static DeltaTouch None(size_t /*num_columns*/) { return DeltaTouch{}; }

  /// Folds one batch's effects into the window.
  void Merge(const BatchEffects& effects) {
    if (!effects.sorted_deletes.empty()) {
      batch_deletes.push_back(effects.sorted_deletes);
    }
  }

  /// The id a row of the window's first relation has after every batch,
  /// or nullopt when a batch deleted it. Deletes compact the survivors
  /// in order and inserts append after them, so each batch lowers a
  /// surviving row by the deletes below it: O(log d) per batch.
  std::optional<PositionListIndex::Row> RemapRow(
      PositionListIndex::Row row) const {
    size_t r = row;
    for (const std::vector<size_t>& deletes : batch_deletes) {
      auto it = std::lower_bound(deletes.begin(), deletes.end(), r);
      if (it != deletes.end() && *it == r) return std::nullopt;
      r -= static_cast<size_t>(it - deletes.begin());
    }
    return static_cast<PositionListIndex::Row>(r);
  }
};

/// The FD and DD verdict memos carried across successive profiles of one
/// relation's snapshots (the only classes whose failures name a
/// witness). `valid` flips after the first profile; until then every
/// search runs from scratch (and still records).
struct DiscoveryMemo {
  VerdictMemo fd;
  VerdictMemo dd;
  bool valid = false;

  size_t size() const { return fd.size() + dd.size(); }

  /// Exchanges contents with `other`.
  void Swap(DiscoveryMemo& other) {
    fd.Swap(other.fd);
    dd.Swap(other.dd);
    std::swap(valid, other.valid);
  }
};

/// Profiles the cache's snapshot exactly like ProfileRelation(cache,
/// options) — the report is bit-identical — but takes over from `memo`
/// the FD and DD failures whose witness rows survive and still violate
/// instead of re-validating them. On success `memo` holds this run's
/// verdicts for the next round. `touch` holds the rows deleted since the
/// snapshot `memo` was recorded against.
Result<DiscoveryReport> ProfileRelationIncremental(
    PliCache* cache, const DiscoveryOptions& options, const DeltaTouch& touch,
    DiscoveryMemo* memo);

/// The same with the memos apart: reads `prior`, and records this run's
/// verdicts into `next` (which must be empty and not alias `prior`),
/// marking it valid on success. A caller whose snapshot can still fail
/// after profiling swaps `next` in only once the snapshot is built.
Result<DiscoveryReport> ProfileRelationIncremental(
    PliCache* cache, const DiscoveryOptions& options, const DeltaTouch& touch,
    const DiscoveryMemo& prior, DiscoveryMemo* next);

}  // namespace metaleak

#endif  // METALEAK_DISCOVERY_REVALIDATE_H_
