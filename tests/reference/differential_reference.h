// Reference differential-dependency scan: the test oracle for
// ComputeMinimalDelta / CheckDifferential.
//
// This is the value-pair sort: collect every row's (lhs, rhs) numerics,
// drop rows with a NULL on either side, std::sort the pairs as doubles,
// and run one serial sliding window over them, taking the largest rhs
// gap between a point and the earlier points within eps on the lhs. It
// orders by value and does not rely on codes being order-preserving,
// at O(n log n) per check; the library sorts row ids by code with two
// counting passes instead. Both must return the same delta, bit for bit.
#ifndef METALEAK_TESTS_REFERENCE_DIFFERENTIAL_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_DIFFERENTIAL_REFERENCE_H_

#include <cstddef>

#include "common/result.h"
#include "data/relation.h"

namespace metaleak {
namespace reference {

/// Minimal delta of the DD lhs -> rhs at `eps` over the Values of
/// `relation`: 0 with fewer than two non-null rows, a TypeError when a
/// non-null pair holds a non-numeric value.
Result<double> ComputeMinimalDelta(const Relation& relation, size_t lhs,
                                   size_t rhs, double eps);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_DIFFERENTIAL_REFERENCE_H_
