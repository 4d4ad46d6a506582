// Targeted revalidation: re-profile a changed relation re-checking only
// the dependencies whose support sets the delta touched.
//
// The lattice search's output is a pure function of the per-candidate
// verdict function, so a re-run that substitutes provably-unchanged
// verdicts from the previous run produces a bit-identical DependencySet.
// The per-class reuse predicates, each sound for its validator:
//
//   FD    Reuse when no LHS member's cluster set changed: the verdict
//         pli(X).Refines(pli(A)) only reads X's clusters (whose rows all
//         survive — a deleted/inserted member row would have touched the
//         member column) and those rows' A-codes, which never change.
//         Empty-LHS (constant column) verdicts read the whole column and
//         reuse only when nothing changed. A failure also reuses when
//         both rows of its witness survive the window: they still agree
//         on X and differ on A, so X -> A still fails, whatever else the
//         batches touched.
//   AFD   g3 = violations / N changes with the row count even for
//         untouched clusters, so AFD-mode searches reuse only when
//         nothing changed at all; a failure may turn into an AFD, so
//         witnesses are not reused either.
//   OD/OFD  Directional: an insert can only add order violations, so
//         `holds == false` survives insert-only deltas; a delete can
//         only remove them, so `holds == true` survives delete-only
//         deltas. Both emissions are parameterless, so the reused
//         verdict is exactly what a fresh validation would return.
//   ND    Reuse when no LHS member's clusters changed (the fan-out K is
//         computed over X's clusters and their RHS codes) and the RHS
//         dictionary's live set is unchanged (the triviality thresholds
//         scale with the RHS distinct count).
//   DD    Epsilon and delta thresholds scale with the attribute ranges
//         (dictionary min/max), so a verdict reuses when nothing changed.
//         A single-attribute failure also reuses when both witness rows
//         survive, their LHS gap is within the new epsilon and their RHS
//         gap exceeds the new bound: the minimal delta is at least that
//         gap, so the DD still fails. Multi-attribute DDs name no
//         witness.
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
#include "partition/attribute_set.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"

namespace metaleak {

/// Accumulated touch set of one batch window (all batches applied since
/// the last profiled snapshot), in attribute space.
struct DeltaTouch {
  /// Per attribute: some >= 2 cluster gained or lost a row.
  std::vector<bool> cluster_touched;
  /// Per attribute: the live value set changed (value appeared,
  /// revived, or vanished).
  std::vector<bool> dictionary_touched;
  bool had_inserts = false;
  bool had_deletes = false;
  /// Each batch's sorted unique deleted rows, in batch order and in
  /// that batch's pre-batch row ids (empty batches are skipped).
  std::vector<std::vector<size_t>> batch_deletes;

  static DeltaTouch None(size_t num_columns) {
    DeltaTouch touch;
    touch.cluster_touched.assign(num_columns, false);
    touch.dictionary_touched.assign(num_columns, false);
    return touch;
  }

  bool any_change() const { return had_inserts || had_deletes; }
  bool insert_only() const { return had_inserts && !had_deletes; }
  bool delete_only() const { return had_deletes && !had_inserts; }

  /// True when some attribute of `attrs` has touched clusters. Sound
  /// for composite LHS sets: pli(X) refines every member's partition,
  /// so an X-cluster change implies a member cluster change.
  bool ClusterTouched(AttributeSet attrs) const {
    for (size_t a : attrs.ToIndices()) {
      if (cluster_touched[a]) return true;
    }
    return false;
  }

  /// Folds one batch's effects into the window.
  void Merge(const BatchEffects& effects) {
    for (size_t c = 0; c < cluster_touched.size(); ++c) {
      if (effects.column_touched[c]) cluster_touched[c] = true;
      if (effects.dictionary_touched[c]) dictionary_touched[c] = true;
    }
    if (effects.remap.rows_surviving < effects.remap.rows_before) {
      had_deletes = true;
    }
    if (effects.remap.rows_after > effects.remap.rows_surviving) {
      had_inserts = true;
    }
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

/// Per-class verdict memos carried across successive profiles of one
/// relation's snapshots. `valid` flips after the first profile; until
/// then every search runs from scratch (and still records).
struct DiscoveryMemo {
  VerdictMemo fd;
  VerdictMemo od;
  VerdictMemo ofd;
  VerdictMemo nd;
  VerdictMemo dd;
  bool valid = false;

  size_t size() const {
    return fd.size() + od.size() + ofd.size() + nd.size() + dd.size();
  }

  /// Exchanges contents with `other`.
  void Swap(DiscoveryMemo& other) {
    fd.Swap(other.fd);
    od.Swap(other.od);
    ofd.Swap(other.ofd);
    nd.Swap(other.nd);
    dd.Swap(other.dd);
    std::swap(valid, other.valid);
  }
};

/// Profiles the cache's snapshot exactly like ProfileRelation(cache,
/// options) — the report is bit-identical — but answers candidates whose
/// verdicts the delta provably left unchanged from `memo` instead of
/// re-validating them. On success `memo` holds this run's verdicts for
/// the next round. `touch` describes everything that changed since the
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
