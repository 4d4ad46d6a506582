// Reference per-tuple reconstruction risk: the test oracle for
// AnalyzeTupleRisk's column-major code-path scoring.
//
// It replays the analysis round by round from the same seed (one
// Rng::Fork() per round, fed to GenerateSynthetic) and scores every cell
// with the Value-level Def 2.2/2.3 predicate: a NULL real cell is never
// scored, a categorical cell matches on equal values or equal numerics
// (Int 3 and Real 3.0), a continuous cell matches when both sides are
// numeric and within epsilon, and NaN matches nothing. Epsilon follows
// the analysis' policy: the absolute override, else epsilon_fraction of
// the real column's observed range.
#ifndef METALEAK_TESTS_REFERENCE_TUPLE_RISK_REFERENCE_H_
#define METALEAK_TESTS_REFERENCE_TUPLE_RISK_REFERENCE_H_

#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "metadata/metadata_package.h"
#include "privacy/tuple_risk.h"

namespace metaleak {
namespace reference {

/// One TupleRisk per row of `real`, in the report's order (descending
/// mean matched attributes, stable by row). `identifiable` is left false:
/// the oracle covers the Monte-Carlo scores only.
Result<std::vector<TupleRisk>> TupleRiskByCell(
    const Relation& real, const MetadataPackage& metadata,
    const TupleRiskOptions& options);

}  // namespace reference
}  // namespace metaleak

#endif  // METALEAK_TESTS_REFERENCE_TUPLE_RISK_REFERENCE_H_
