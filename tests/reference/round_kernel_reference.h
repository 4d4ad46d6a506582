// Reference Monte-Carlo round kernels: the test oracles for the sampler,
// the generators' rank and fold kernels, the radix sort and the
// NN-linkage estimator, plus the pool-first ND and std::sort DD
// generators.
//
// Each function is the implementation the library used before those
// kernels went linear: Floyd's algorithm over a std::unordered_set, ranks
// by copy + std::sort + std::unique + a std::lower_bound per row, the
// composite-LHS fold through a std::unordered_map, std::sort for order
// statistics, and the NN-linkage adversary as a per-row binary search over
// the sorted generated values. The library must reproduce them bit for
// bit: the same draws in the same order, the same ranks, group ids and
// counts. The ND and DD generators are the exceptions: the library's
// lazy pools draw in a different order, and its DD chain takes tied LHS
// rows in row order where std::sort leaves them in an unspecified one, so
// these two are oracles for the distribution only
// (tests/nd_distribution_test.cc, tests/dd_distribution_test.cc).
#ifndef METALEAK_TESTS_REFERENCE_ROUND_KERNEL_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_ROUND_KERNEL_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "privacy/leakage.h"

namespace metaleak {
namespace reference {

/// Floyd's algorithm with a std::unordered_set of chosen indices.
std::vector<size_t> SampleWithoutReplacement(Rng* rng, size_t n, size_t k);

/// Dense ascending ranks of xs by copy + sort + unique + lower_bound.
/// Returns the distinct count.
uint32_t RankReals(const std::vector<double>& xs,
                   std::vector<uint32_t>* ranks);

/// Ranks of one batch column over rows [0, num_rows): a per-code rank
/// table for code columns, RankReals for real columns.
uint32_t RankBatchColumn(const EncodedBatch& batch, size_t col,
                         size_t num_rows, std::vector<uint32_t>* ranks);

/// First-occurrence composite group ids through a std::unordered_map.
/// Returns the group count.
uint32_t FoldLhsGroups(const EncodedBatch& batch,
                       const std::vector<size_t>& lhs_columns,
                       size_t num_rows, std::vector<uint32_t>* ids);

/// std::sort, ascending.
void SortReals(std::vector<double>* xs);

/// The pool-first ND generator: the first row of each distinct LHS value
/// fills that value's whole pool of take = min(max(1, max_fanout),
/// |Dom(Y)|) slots (Floyd's draw without replacement for a categorical
/// domain, `take` = K i.i.d. draws for a continuous one), then every row
/// draws a slot with UniformIndex(take).
std::vector<Value> PoolFirstNdColumn(const std::vector<Value>& lhs_column,
                                     const Domain& domain, size_t num_rows,
                                     size_t max_fanout, Rng* rng);

/// The std::sort DD generator: row ids sorted by LHS Value with
/// std::sort, which leaves tied rows in an unspecified order, then the
/// Markov interval walk in that order. A row whose LHS lies within
/// `lhs_epsilon` of its predecessor's draws from the `rhs_delta` ball
/// around the predecessor's RHS, clipped to the continuous `domain` (the
/// whole domain if the clip is empty); any other row draws from the
/// whole domain.
std::vector<Value> SortDdColumn(const std::vector<Value>& lhs_column,
                                const Domain& domain, size_t num_rows,
                                double lhs_epsilon, double rhs_delta,
                                Rng* rng);

/// NN-linkage cells for every attribute of `real` against `batch`, laid
/// out like NnLinkageEstimator's block: the eps-match column, then the
/// top-1 column, one cell per attribute. `domains` are the generation
/// domains the batch is coded against.
std::vector<double> NnLinkageCells(const EncodedRelation& real,
                                   const std::vector<Domain>& domains,
                                   const LeakageOptions& options,
                                   const EncodedBatch& batch,
                                   std::vector<bool>* present);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_ROUND_KERNEL_REFERENCE_H_
