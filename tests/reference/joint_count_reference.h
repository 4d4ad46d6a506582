// Reference joint counter: the test oracle for the joint-count kernel
// behind InfoTheoreticEstimator.
//
// Counts every (a[r], b[r]) code pair into a std::map, which orders the
// cells by (x, y) by construction, and evaluates the conditional-entropy
// and mutual-information formulas over the cells in map order, with the
// marginals summed off the same map and every entropy a plain loop of
// its own (one log2 per count). The library counts with a linear
// two-pass counting sort instead, tables the entropy terms of small
// counts and answers a key LHS without counting; both must hand the
// formulas the same cells in the same order, so the measures agree bit
// for bit.
#ifndef METALEAK_TESTS_REFERENCE_JOINT_COUNT_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_JOINT_COUNT_REFERENCE_H_

#include <cstdint>
#include <map>
#include <utility>

#include "data/code_column.h"

namespace metaleak {
namespace reference {

/// Nonzero joint counts keyed by (a code, b code), ascending.
using JointCountMap = std::map<std::pair<uint32_t, uint32_t>, uint64_t>;

/// Joint counts of two equal-length code columns.
JointCountMap JointCounts(const CodeColumnView& a, const CodeColumnView& b);

/// H(b | a) = H(a, b) - H(a) in bits over all rows, NULL (code 0) as its
/// own symbol, clamped at 0.
double ConditionalEntropyBits(const CodeColumnView& a,
                              const CodeColumnView& b);

/// Plug-in MI(a; b) in bits: sum over (x, y) of
/// p_xy log2(c_xy n / (c_x c_y)).
double MutualInformationBits(const CodeColumnView& a,
                             const CodeColumnView& b);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_JOINT_COUNT_REFERENCE_H_
