// Validators: check whether a dependency of each class holds on a relation
// and measure its class-specific parameter (g3 error, fan-out, delta).
//
// Null handling: FD/AFD/ND use the PLI convention (NULL equals NULL). The
// order-based classes (OD, OFD, DD) skip rows with a NULL on either side —
// order comparisons against missing values are undefined.
#ifndef METALEAK_DISCOVERY_VALIDATORS_H_
#define METALEAK_DISCOVERY_VALIDATORS_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "metadata/dependency.h"
#include "metadata/dependency_set.h"
#include "partition/attribute_set.h"
#include "partition/pli_cache.h"
#include "partition/position_list_index.h"

namespace metaleak {

/// True iff the strict FD lhs -> rhs holds. Uses (and fills) `cache`.
bool ValidateFd(PliCache* cache, AttributeSet lhs, size_t rhs);

/// g3 error of lhs -> rhs: minimum fraction of rows to delete for the FD
/// to hold (0 iff the strict FD holds).
double ComputeG3(PliCache* cache, AttributeSet lhs, size_t rhs);

/// Minimal fan-out K of the numerical dependency lhs ->(<=K) rhs: the
/// maximum number of distinct rhs values co-occurring with one lhs value.
size_t ComputeMaxFanout(PliCache* cache, size_t lhs, size_t rhs);

/// Multi-attribute fan-out: distinct rhs values per equivalence class of
/// the composite lhs partition. Exact up to `bound`; past it, some value
/// above `bound` (PositionListIndex::MaxFanout).
size_t ComputeMaxFanout(PliCache* cache, AttributeSet lhs, size_t rhs,
                        size_t bound = std::numeric_limits<size_t>::max());

/// True iff the order dependency lhs -> rhs holds: for all tuples t, u,
/// t[lhs] <= u[lhs] implies t[rhs] <= u[rhs]. Note this entails equal rhs
/// values on lhs ties, i.e. OD implies FD on the non-null rows.
///
/// One serial O(n + D) pass for D distinct lhs values: it records the
/// first rhs code seen per lhs code, fails at the first row that
/// disagrees, then walks the lhs codes in ascending (= value) order and
/// checks that the rhs codes never fall.
bool ValidateOd(const EncodedRelation& relation, size_t lhs, size_t rhs);

/// Encodes `relation` and runs the encoded check. Exact, because columns
/// are uniformly typed and NaN-free, so codes order the values.
bool ValidateOd(const Relation& relation, size_t lhs, size_t rhs);

/// Multi-attribute OD: the LHS orders rows lexicographically by the
/// attributes in ascending index order; rows with a NULL in any involved
/// column are skipped. |lhs| == 1 is exactly the single-attribute check,
/// reading the column in place. Any other LHS (an empty one is a single
/// tuple) folds into an order-preserving dense rank per row, one column
/// at a time with two stable counting passes, O(|lhs| (n + D)), and the
/// single-attribute pass checks the rank against the rhs.
bool ValidateOd(const EncodedRelation& relation, AttributeSet lhs,
                size_t rhs);

/// True iff the ordered functional dependency holds: the FD plus strict
/// order preservation (t[lhs] < u[lhs] implies t[rhs] < u[rhs]). The
/// same single pass as the OD check, with the walk requiring the rhs
/// codes to strictly rise.
bool ValidateOfd(const EncodedRelation& relation, size_t lhs, size_t rhs);

/// Encodes `relation` and runs the encoded check (see the OD overload).
bool ValidateOfd(const Relation& relation, size_t lhs, size_t rhs);

/// Multi-attribute OFD under the same lexicographic LHS order and rank
/// fold as the OD overload above.
bool ValidateOfd(const EncodedRelation& relation, AttributeSet lhs,
                 size_t rhs);

/// Minimal delta such that the differential dependency
/// |t[lhs]-u[lhs]| <= eps  =>  |t[rhs]-u[rhs]| <= delta holds over all
/// tuple pairs. Both attributes must be numeric, and eps non-negative and
/// not NaN; fails otherwise.
/// Returns 0 when fewer than two non-null rows exist. Encodes `relation`
/// and runs the encoded scan (exact: codes order the values).
Result<double> ComputeMinimalDelta(const Relation& relation, size_t lhs,
                                   size_t rhs, double eps);

/// Minimal delta on the encoded view: CheckDifferential with no bound.
Result<double> ComputeMinimalDelta(const EncodedRelation& relation,
                                   size_t lhs, size_t rhs, double eps);

/// Outcome of a single-attribute DD scan against a bound on the rhs gap.
struct DifferentialCheck {
  /// The minimal delta when no pair's gap exceeds the bound; otherwise
  /// the largest gap the scan saw before it stopped.
  double delta = 0.0;
  /// Set iff some pair inside the lhs window has an rhs gap over the
  /// bound: the first such pair in scan order, with `first` the row of
  /// the smaller (or equal) lhs value.
  std::optional<PositionListIndex::RowPair> witness;
};

/// The scan behind ComputeMinimalDelta. Rows with no NULL on either side
/// are ordered by (lhs code, rhs code, row id) with two counting passes,
/// O(n + D_lhs + D_rhs); one serial sliding window then visits each row
/// with the earlier rows within `eps` on the lhs, pairing it first with
/// the window's smallest rhs, then its largest. The scan stops at the
/// first pair whose gap exceeds `max_delta`, so the witness is the same
/// at any thread count and code width. Invalid for a negative or NaN
/// `eps`.
Result<DifferentialCheck> CheckDifferential(const EncodedRelation& relation,
                                            size_t lhs, size_t rhs,
                                            double eps, double max_delta);

/// Multi-attribute minimal delta: a pair qualifies when every LHS
/// attribute a_k is within its eps[k] (conjunctive window); `eps` is
/// parallel to lhs.ToIndices(). |lhs| == 1 is exactly the
/// single-attribute sliding-window scan; wider LHSes check every pair of
/// non-NULL rows in one serial loop. Invalid for a negative or NaN eps.
Result<double> ComputeMinimalDelta(const EncodedRelation& relation,
                                   AttributeSet lhs,
                                   const std::vector<double>& eps,
                                   size_t rhs);

/// Validates a dependency of any class against `relation`; for
/// parameterized classes the recorded parameter must be satisfied
/// (g3 <= dep.g3_error, fan-out <= dep.max_fanout, minimal delta <=
/// dep.rhs_delta). Fails on out-of-range attribute indices, and the
/// encoded overloads on a relation wider than 64 attributes. Handles
/// multi-attribute LHSes for every class.
Result<bool> ValidateDependency(const Relation& relation,
                                const Dependency& dep);

/// Same, over a pre-built encoding (no per-call re-encode).
Result<bool> ValidateDependency(const EncodedRelation& relation,
                                const Dependency& dep);

/// Same, over a caller-owned PLI cache (no per-call cache rebuild; the
/// relation is the cache's encoding). The cheapest form when validating
/// many dependencies against one relation.
Result<bool> ValidateDependency(PliCache* cache, const Dependency& dep);

/// Batch validation: encodes / builds partitions once for the whole set.
/// Element i of the result answers for the i-th dependency of `deps`.
Result<std::vector<bool>> ValidateDependencies(const Relation& relation,
                                               const DependencySet& deps);
Result<std::vector<bool>> ValidateDependencies(
    const EncodedRelation& relation, const DependencySet& deps);

}  // namespace metaleak

#endif  // METALEAK_DISCOVERY_VALIDATORS_H_
