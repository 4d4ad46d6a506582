// Per-dependency-class column generators.
//
// Each function produces the synthetic column for one target attribute,
// given the already-generated LHS column(s) and the disclosed metadata.
// They implement the generation processes the paper analyzes:
//
//   Root (names+domains only): i.i.d. uniform draws from the domain
//     (Section III-A, "random generation from a uniform distribution").
//   FD: one-time random mapping from each distinct LHS value to a domain
//     value of the RHS (Section III-B, "one-time initialization
//     throughout the dataset").
//   AFD: the FD process, with a g3 fraction of rows re-drawn
//     independently (Section IV-A).
//   ND: per distinct LHS value, a pool of K RHS values sampled without
//     replacement (the hyper-geometric selection of Section IV-B); each
//     row draws from its pool.
//   OD: distinct LHS values sorted; RHS values assigned from sorted
//     order statistics over the RHS domain, preserving order
//     (the interval partitioning of Section IV-C).
//   DD: a Markov interval process along the LHS ordering: proximal LHS
//     values constrain the next RHS draw to a delta-ball around the
//     previous one (Section IV-D). Tied rows take their steps in row
//     order.
//   OFD: a strictly monotone one-dimensional random walk over the RHS
//     domain (Section IV-E).
//
// All functions assume uniform distributions — the paper's fundamental
// assumption that value distributions are not disclosed.
#ifndef METALEAK_GENERATION_COLUMN_GENERATORS_H_
#define METALEAK_GENERATION_COLUMN_GENERATORS_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/value.h"

namespace metaleak {

/// i.i.d. uniform draws from `domain` (random generation baseline).
std::vector<Value> GenerateRootColumn(const Domain& domain, size_t num_rows,
                                      Rng* rng);

/// FD lhs -> target: one random mapping per distinct LHS key. `lhs_columns`
/// holds the already generated LHS columns (possibly several for a
/// composite LHS; an empty list models the constant-column FD {} -> A).
std::vector<Value> GenerateFdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, Rng* rng);

/// AFD: FD process + `g3_error` fraction of rows re-drawn independently.
std::vector<Value> GenerateAfdColumn(
    const std::vector<const std::vector<Value>*>& lhs_columns,
    const Domain& domain, size_t num_rows, double g3_error, Rng* rng);

/// ND lhs ->(<=K) target: each distinct LHS value owns a pool of
/// take = min(max(1, max_fanout), |Dom(Y)|) distinct domain values
/// (`max_fanout` i.i.d. draws, a.s. distinct, for a continuous domain),
/// and each row draws a slot of its group's pool uniformly. Pools fill
/// lazily: rows are visited group by group in ascending LHS order, and a
/// row that draws an empty slot fills it with a value its group has not
/// used yet. That is the pool-first process's distribution at no more
/// than 2 * num_rows draws (DESIGN.md section 15).
std::vector<Value> GenerateNdColumn(const std::vector<Value>& lhs_column,
                                    const Domain& domain, size_t num_rows,
                                    size_t max_fanout, Rng* rng);

/// OD lhs -> target: distinct LHS values (by Value order) are mapped to
/// non-decreasing order statistics over the target domain.
std::vector<Value> GenerateOdColumn(const std::vector<Value>& lhs_column,
                                    const Domain& domain, size_t num_rows,
                                    Rng* rng);

/// OFD lhs -> target: like OD but strictly increasing where the domain
/// permits (categorical domains smaller than the LHS distinct count fall
/// back to non-decreasing, mirroring the forced transitions the paper
/// describes for exhausted partitions).
std::vector<Value> GenerateOfdColumn(const std::vector<Value>& lhs_column,
                                     const Domain& domain, size_t num_rows,
                                     Rng* rng);

/// DD: Markov interval process along the LHS order; rows whose LHS is
/// within `lhs_epsilon` of the previous row draw from a `rhs_delta` ball
/// around the previous RHS value. The chain visits rows in (LHS, row)
/// order: ascending LHS value, tied rows in row order, one UniformDouble
/// each. Requires a continuous target domain.
Result<std::vector<Value>> GenerateDdColumn(
    const std::vector<Value>& lhs_column, const Domain& domain,
    size_t num_rows, double lhs_epsilon, double rhs_delta, Rng* rng);

/// --- Encoded (code-path) generators ------------------------------------
///
/// Mirrors of the generators above that emit dense domain codes
/// (categorical domains: code i+1 means domain.values()[i], code 0 is
/// NULL) or raw doubles (continuous domains) straight into an
/// EncodedBatch column. Each mirror consumes the RNG in *exactly* the
/// same sequence as its boxed-Value twin, so decoding the batch
/// reproduces the Value column bit for bit. The batch must be
/// Configure()d with ColumnKindsForDomains of the generation domains and
/// ResetRows() to `num_rows` before any generator runs; LHS columns are
/// read back out of the same batch by index. Internal scratch (rank
/// maps, group ids, ND/DD row buckets) is thread-local and reused across
/// calls, which is what makes the Monte-Carlo loop allocation-free after
/// the first round on each worker thread.

/// Dense ascending ranks of batch column `col` over rows [0, num_rows)
/// into (*ranks)[0, num_rows): code columns rank by code, real columns by
/// value with -0.0 == +0.0 (the Value order, so the ranks match ranking
/// the decoded column). Returns the distinct count. Real columns go
/// through RadixRankDoubles and must be NaN-free. The ND, OD, OFD and DD
/// generators visit LHS values in this order.
uint32_t RankEncodedColumn(const EncodedBatch& batch, size_t col,
                           size_t num_rows, std::vector<uint32_t>* ranks);

/// One group id per row for the composite LHS `lhs_columns` (the fold of
/// PositionListIndex::FromEncoded), numbered by first occurrence in row
/// order so lazy sampling keyed by id draws in row-scan order. The empty
/// LHS is one group. Groups need no order, so nothing is ranked: a code
/// column is keyed by its code and a real column by RankKey (-0.0 and
/// +0.0 are one value; NaN-free), through a hash table. Writes
/// (*ids)[0, num_rows); returns the group count.
uint32_t FoldLhsGroupsEncoded(const EncodedBatch& batch,
                              const std::vector<size_t>& lhs_columns,
                              size_t num_rows, std::vector<uint32_t>* ids);

/// Root: i.i.d. uniform draws from the domain.
void GenerateRootColumnEncoded(const Domain& domain, size_t num_rows,
                               Rng* rng, EncodedBatch* batch,
                               size_t target);

/// FD: one lazily-sampled target per distinct LHS group (empty
/// `lhs_columns` models the constant FD {} -> A).
void GenerateFdColumnEncoded(const std::vector<size_t>& lhs_columns,
                             const Domain& domain, size_t num_rows,
                             Rng* rng, EncodedBatch* batch, size_t target);

/// AFD: the FD process + a g3 fraction of rows re-drawn independently.
void GenerateAfdColumnEncoded(const std::vector<size_t>& lhs_columns,
                              const Domain& domain, size_t num_rows,
                              double g3_error, Rng* rng,
                              EncodedBatch* batch, size_t target);

/// ND: GenerateNdColumn's lazy pools over the ranks of batch column
/// `lhs_column`. Both run one kernel, so they draw alike by construction.
void GenerateNdColumnEncoded(size_t lhs_column, const Domain& domain,
                             size_t num_rows, size_t max_fanout, Rng* rng,
                             EncodedBatch* batch, size_t target);

/// OD: distinct LHS ranks mapped to non-decreasing order statistics.
void GenerateOdColumnEncoded(size_t lhs_column, const Domain& domain,
                             size_t num_rows, Rng* rng, EncodedBatch* batch,
                             size_t target);

/// OFD: like OD but strictly increasing where the domain permits.
void GenerateOfdColumnEncoded(size_t lhs_column, const Domain& domain,
                              size_t num_rows, Rng* rng,
                              EncodedBatch* batch, size_t target);

/// DD: GenerateDdColumn's chain over the ranks of batch column
/// `lhs_column`; both run one kernel. `lhs_code_numeric` is the per-code
/// numeric view of the LHS column's domain (code -> AsNumeric, 0.0 for
/// non-numeric entries) when the LHS is code-stored; unused for a
/// real-stored LHS. TypeError for a categorical target domain, exactly
/// like the Value twin (the engine falls back to a root draw).
Status GenerateDdColumnEncoded(size_t lhs_column, const Domain& domain,
                               const std::vector<double>& lhs_code_numeric,
                               size_t num_rows, double lhs_epsilon,
                               double rhs_delta, Rng* rng,
                               EncodedBatch* batch, size_t target);

}  // namespace metaleak

#endif  // METALEAK_GENERATION_COLUMN_GENERATORS_H_
