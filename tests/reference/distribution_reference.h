// Reference disclosed-distribution sampling: the test oracle for
// ValueDistribution::Sample, the encoded generator's distribution
// sampler, and its frequency-value-to-code mapping.
//
// These are the linear scans: a draw walks the counts, summing until the
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
#include "data/value.h"
#include "metadata/value_distribution.h"

namespace metaleak {
namespace reference {

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
