// Reference boxed-Value generation: the test oracle for GenerateEncoded
// and ApplyCfdsEncoded.
//
// These are the generators, the relation builder and the CFD chase the
// library ran on boxed `Value` columns before the code path became its
// only one. They draw from the Rng in the order the encoded generators
// do: roots and FD/AFD mappings in row order (a mapping at its LHS key's
// first row), OD/OFD order statistics once per distinct LHS value, the
// ND pools and the DD chain over the rows in (LHS value, row) order. The
// lazy ND pools and the DD chain are written out here over Value
// columns, with a dense Fisher-Yates permutation per LHS group and a
// stable sort of the row ids, rather than the counting sorts and sparse
// swap tables of the library's kernels. A decoded GenerateEncoded batch
// (after ApplyCfdsEncoded for the CFD method) must equal these bit for
// bit (tests/generation_oracle_test.cc).
#ifndef METALEAK_TESTS_REFERENCE_GENERATION_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_GENERATION_REFERENCE_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/domain.h"
#include "data/relation.h"
#include "data/value.h"
#include "generation/generation_engine.h"
#include "metadata/conditional_fd.h"
#include "metadata/metadata_package.h"

namespace metaleak {
namespace reference {

/// i.i.d. uniform draws from `domain`.
std::vector<Value> GenerateRootColumn(const Domain& domain, size_t num_rows,
                                      Rng* rng);

/// FD: one domain draw per distinct LHS key (the tuple of the
/// `lhs_columns` values), drawn at the key's first row. An empty list is
/// the constant-column FD {} -> A.
std::vector<Value> GenerateFdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, Rng* rng);

/// AFD: the FD column, then each row re-drawn from the domain with
/// probability `g3_error` (one Bernoulli per row, in row order).
std::vector<Value> GenerateAfdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, double g3_error, Rng* rng);

/// ND: lazy pools of take = min(max(1, max_fanout), |Dom(Y)|) slots
/// (max(1, max_fanout) for a continuous domain), visited group by group
/// in ascending LHS value, rows in row order within a group.
std::vector<Value> GenerateNdColumn(const std::vector<Value>& lhs_column,
                                    const Domain& domain, size_t num_rows,
                                    size_t max_fanout, Rng* rng);

/// OD: the i-th smallest distinct LHS value maps to the i-th of as many
/// sorted i.i.d. domain draws.
std::vector<Value> GenerateOdColumn(const std::vector<Value>& lhs_column,
                                    const Domain& domain, size_t num_rows,
                                    Rng* rng);

/// OFD: like OD, but a categorical domain with at least as many values
/// as distinct LHS values is sampled without replacement.
std::vector<Value> GenerateOfdColumn(const std::vector<Value>& lhs_column,
                                     const Domain& domain, size_t num_rows,
                                     Rng* rng);

/// DD: the Markov interval walk over the rows in (LHS value, row) order.
/// TypeError for a categorical target domain.
Result<std::vector<Value>> GenerateDdColumn(
    const std::vector<Value>& lhs_column, const Domain& domain,
    size_t num_rows, double lhs_epsilon, double rhs_delta, Rng* rng);

/// R_syn over boxed columns along the plan GenerateEncoded walks, with
/// disclosed distributions sampled by ValueDistribution::Sample, then
/// the physical types relaxed as MaterializeRelation does.
Result<GenerationOutcome> GenerateSyntheticValuePath(
    const MetadataPackage& metadata, size_t num_rows, Rng* rng,
    const GenerationOptions& options = {});

/// The bounded CFD chase over boxed columns: constants first, then
/// variable rules, single-writer cells per pass, variable mappings keyed
/// by an FNV fold of the LHS cells' Value::Hash. Physical types are
/// re-derived afterwards (an Int64 constant in a double column becomes
/// its double).
Result<Relation> ApplyCfds(const Relation& relation,
                           const std::vector<ConditionalFd>& cfds,
                           const std::vector<Domain>& domains, Rng* rng);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_GENERATION_REFERENCE_H_
