// Reference disclosed distributions: the test oracle for
// ValueDistribution::FromEncoded, for ValueDistribution::Sample, for the
// encoded generator's distribution sampler, and for its
// frequency-value-to-code mapping.
//
// The profilers scan a column of boxed Values: a frequency table counts
// each non-null Value in an ordered map, and a histogram takes the
// numeric range in one pass and buckets every numeric cell in a second.
// The library reads both off the column's dictionary instead. The rest
// are linear scans: a draw walks the counts, summing until the
// running total passes UniformIndex(total) (re-summing the total first,
// every draw), and a frequency value maps to a domain code by scanning
// the whole domain for structurally equal entries. That is O(F) per draw
// and O(F * D) per mapped column, which is why the library binary-searches
// a cumulative array and looks values up in one hash of the domain. Both
// must draw and map the same, draw for draw.
#ifndef METALEAK_TESTS_REFERENCE_DISTRIBUTION_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_DISTRIBUTION_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/relation.h"
#include "data/value.h"
#include "metadata/value_distribution.h"

namespace metaleak {
namespace reference {

/// Equi-width histogram with `buckets` bins over the non-null numeric
/// values of one column; fails when the column has none or buckets == 0.
Result<Histogram> BuildHistogram(const Relation& relation, size_t attribute,
                                 size_t buckets);

/// Frequency table of the non-null values of one column, in Value order.
Result<FrequencyTable> BuildFrequencyTable(const Relation& relation,
                                           size_t attribute);

/// The marginal of one attribute: BuildFrequencyTable for categorical
/// attributes, BuildHistogram for continuous ones.
Result<ValueDistribution> DistributionFromColumn(const Relation& relation,
                                                 size_t attribute,
                                                 size_t buckets = 16);

/// The entry one weighted draw over `counts` picks: draws
/// UniformIndex(sum of counts) and walks the counts until the running sum
/// passes it (the last entry if it never does).
size_t WalkCounts(const std::vector<size_t>& counts, Rng* rng);

/// ValueDistribution::Sample by WalkCounts: the frequency value, or a
/// uniform double inside the drawn histogram bucket.
Value Sample(const ValueDistribution& dist, Rng* rng);

/// The 1-based code of the single domain entry equal to `v` (a full
/// domain scan); false when no entry or several entries equal it.
bool MapDistValueToCode(const Value& v, const std::vector<Value>& domain,
                        uint32_t* code);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_DISTRIBUTION_REFERENCE_H_
