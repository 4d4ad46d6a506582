// Reference Def 2.2 translation: the test oracle for the categorical half
// of EncodedLeakageContext::Build.
//
// Build translates each real value into a categorical generation domain
// with one merge walk over two sorted sequences. The oracle instead
// compares every real cell with every domain entry under the Def 2.2
// match predicate: equal Values, or two numerics with equal AsNumeric()
// (Int 3 matches Real 3.0). It neither sorts, hashes nor merges, so it
// does not rely on the domain being sorted or on the dictionary's codes
// ascending in Value order.
//
// A NULL real cell and a value matching no entry translate to no code. A
// value matching one entry takes that entry's 1-based index. A value
// matching several entries is refused, since one translated code cannot
// express it.
#ifndef METALEAK_TESTS_REFERENCE_LEAKAGE_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_LEAKAGE_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/domain.h"
#include "data/relation.h"

namespace metaleak {
namespace reference {

/// Per-row translation of column `column` of `real` into `domain`:
/// 1-based domain indices, EncodedLeakageContext::kNoMatchCode for NULL
/// and unmatched cells. Invalid with Build's reason ("real value matches
/// several domain entries cross-type") when some non-NULL cell matches
/// more than one entry.
Result<std::vector<uint32_t>> TranslateCategorical(const Relation& real,
                                                   size_t column,
                                                   const Domain& domain);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_LEAKAGE_REFERENCE_H_
