// Per-batch leakage deltas: what a row batch changed about the answer to
// "will sharing this metadata leak privacy?".
//
// The incremental service keeps a relation alive across insert/delete
// batches. After each batch it re-derives the snapshot's leakage profile
// (the analytical Section III expected-match model per attribute, plus
// the discovered dependency set) and diffs it against the pre-batch
// profile. The diff is the batch's privacy story: attributes whose
// expected leakage crossed the >= 1 threshold, dependencies the batch
// created or destroyed, and the row-count drift that rescales every
// expectation.
#ifndef METALEAK_PRIVACY_LEAKAGE_DELTA_H_
#define METALEAK_PRIVACY_LEAKAGE_DELTA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "metadata/metadata_package.h"
#include "privacy/leakage.h"
#include "privacy/risk_estimator.h"

namespace metaleak {

/// One attribute's analytical leakage position (Section III model).
struct AttributeExpectation {
  size_t attribute = 0;
  std::string name;
  SemanticType semantic = SemanticType::kCategorical;
  /// Non-null cells — the comparisons the expectation ranges over.
  size_t compared = 0;
  /// Expected exact (categorical) or epsilon-ball (continuous) matches
  /// from names + domains alone.
  double expected_random_matches = 0.0;
  /// expected_random_matches >= 1: domain disclosure alone leaks.
  bool domain_leaks = false;
};

/// Section III's names-and-domains expectation for every attribute of
/// `encoded`, labelled from `schema`, under the disclosed `domains` (one
/// per column): exact matches for categorical attributes, epsilon-ball
/// matches for continuous ones with the epsilon `leakage` sets. The
/// snapshot profile and the audit both read it, each with its own
/// options.
std::vector<AttributeExpectation> ExpectRandomMatches(
    const EncodedRelation& encoded, const Schema& schema,
    const std::vector<Domain>& domains, const LeakageOptions& leakage);

/// Snapshot-level leakage profile: the analytical model evaluated over
/// the dictionaries plus the disclosed dependency set.
struct LeakageProfile {
  Schema schema;
  size_t num_rows = 0;
  std::vector<AttributeExpectation> attributes;
  DependencySet dependencies;
  size_t num_conditional_fds = 0;
  /// Batch-independent estimator measures (entropy, conditional entropy
  /// given disclosed dependencies) evaluated over the dictionaries —
  /// ComputeProfileMeasures output, cached with the snapshot and diffed
  /// by DiffLeakageProfiles.
  std::vector<RiskProfileMeasure> risk_measures;
};

/// Evaluates the analytical model straight off the dictionaries — no
/// Monte-Carlo rounds, O(columns) after encoding. `metadata` supplies the
/// disclosed domains and dependencies; `leakage` supplies the continuous
/// epsilon policy (absolute_epsilon / epsilon_fraction), matching the
/// audit's per-attribute expectation exactly.
Result<LeakageProfile> ComputeLeakageProfile(const EncodedRelation& encoded,
                                             const MetadataPackage& metadata,
                                             const LeakageOptions& leakage);

/// One registered measure whose value moved for one attribute between
/// two profiles (or whose presence flipped — a dependency disclosure
/// gained or lost a conditional-entropy bound).
struct MeasureDrift {
  std::string estimator;
  std::string measure;
  size_t attribute = 0;
  RiskMeasureCell before;
  RiskMeasureCell after;
};

/// What changed between two profiles of the same schema.
struct LeakageDelta {
  long long rows_delta = 0;
  /// Parallel to the schema: after - before expected random matches.
  std::vector<double> expected_matches_delta;
  /// Attributes whose domain_leaks flag flipped false -> true this batch.
  std::vector<size_t> newly_leaking;
  /// ... and true -> false.
  std::vector<size_t> no_longer_leaking;
  /// Dependencies present after but not before, and vice versa.
  std::vector<Dependency> dependencies_added;
  std::vector<Dependency> dependencies_removed;
  /// Registered measures that drifted more than 1e-12 in absolute value
  /// (or flipped presence) for some attribute. Measures present in only
  /// one profile are not diffed — a registry change is not a data
  /// change.
  std::vector<MeasureDrift> measure_drifts;

  bool empty() const {
    return rows_delta == 0 && newly_leaking.empty() &&
           no_longer_leaking.empty() && dependencies_added.empty() &&
           dependencies_removed.empty() && measure_drifts.empty();
  }

  /// Human-readable summary, one line per change (empty string when
  /// nothing moved).
  std::string ToString(const Schema& schema) const;
};

/// Diffs `after` against `before`. Fails when the schemas disagree in
/// width (the delta layer never changes the schema).
Result<LeakageDelta> DiffLeakageProfiles(const LeakageProfile& before,
                                         const LeakageProfile& after);

}  // namespace metaleak

#endif  // METALEAK_PRIVACY_LEAKAGE_DELTA_H_
