// Identifiability analysis: Definition 2.1 of the paper (GDPR Art. 5).
//
// A tuple is identifiable when some attribute subset's value combination
// is unique to it. The analyzer measures, per subset and aggregated, how
// many tuples are identifiable — the property anonymization must destroy
// before data sharing.
#ifndef METALEAK_PRIVACY_IDENTIFIABILITY_H_
#define METALEAK_PRIVACY_IDENTIFIABILITY_H_

#include <vector>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "partition/attribute_set.h"

namespace metaleak {

class PliCache;

/// Per-row flags: row r is true iff its projection onto `attrs` is unique
/// in the relation. The `Relation` overloads below encode once and run
/// the code-path scans; subset sweeps should encode up front and reuse
/// one encoding across every projection.
Result<std::vector<bool>> UniqueRows(const Relation& relation,
                                     AttributeSet attrs);
Result<std::vector<bool>> UniqueRows(const EncodedRelation& relation,
                                     AttributeSet attrs);

/// Fraction of rows unique under projection to `attrs`.
Result<double> IdentifiableFraction(const Relation& relation,
                                    AttributeSet attrs);
Result<double> IdentifiableFraction(const EncodedRelation& relation,
                                    AttributeSet attrs);

/// Per-row flags: row r is true iff some attribute subset of size
/// exactly min(width, num_columns) makes it unique (uniqueness is
/// monotone in the subset, so width-k subsets cover every narrower
/// quasi-identifier too). When some column's dictionary shows a key
/// (every code, NULL included, occurs once) every row is identifiable
/// and no subset is swept. Otherwise the subset sweep — the
/// identifiability hot loop — runs on the shared thread pool; the
/// per-subset verdicts are OR-merged, so the result is thread-count
/// independent. Shared by IdentifiableByAnySubset and the tuple-risk
/// analyzer.
///
/// Subset partitions are built by extension through the PliCache: each
/// width-k subset's PLI is the cached width-(k-1) prefix intersected
/// with one singleton, not a k-column rebuild. The PliCache overload
/// lets callers share the cache (and its subset partitions) across
/// several sweeps; the EncodedRelation overload owns a transient one,
/// built only after the key check finds no key.
Result<std::vector<bool>> IdentifiableRows(const EncodedRelation& relation,
                                           size_t width);
Result<std::vector<bool>> IdentifiableRows(PliCache& cache, size_t width);

/// The sweep kernel under IdentifiableRows: OR of per-subset uniqueness
/// over an explicit subset list (callers pick the frontier; this runs
/// it). Fails with the first error if any subset references an attribute
/// outside the relation.
Result<std::vector<bool>> IdentifiableRowsForSubsets(
    PliCache& cache, const std::vector<AttributeSet>& subsets);

/// Fraction of rows identifiable by *some* attribute subset of size at
/// most `max_subset_size` (Definition 2.1 with a bounded search: a row
/// identifiable at size k is identifiable at any larger size, so bounding
/// the subset size bounds the quasi-identifier width considered).
Result<double> IdentifiableByAnySubset(const Relation& relation,
                                       size_t max_subset_size);
Result<double> IdentifiableByAnySubset(const EncodedRelation& relation,
                                       size_t max_subset_size);
/// Shares the caller's cache (and its subset partitions) instead of
/// building a transient one — the warm-snapshot path.
Result<double> IdentifiableByAnySubset(PliCache& cache,
                                       size_t max_subset_size);

/// Minimal unique column combinations (candidate keys) with at most
/// `max_size` attributes: subsets whose projection is unique for every
/// row and no proper subset is. These witness that *all* tuples are
/// identifiable.
Result<std::vector<AttributeSet>> DiscoverUniqueColumnCombinations(
    const Relation& relation, size_t max_size);
Result<std::vector<AttributeSet>> DiscoverUniqueColumnCombinations(
    const EncodedRelation& relation, size_t max_size);
Result<std::vector<AttributeSet>> DiscoverUniqueColumnCombinations(
    PliCache& cache, size_t max_size);

}  // namespace metaleak

#endif  // METALEAK_PRIVACY_IDENTIFIABILITY_H_
