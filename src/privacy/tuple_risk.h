// Per-tuple reconstruction risk.
//
// The paper's Section V discussion: "The precise index of the
// appropriate generation may not be critically important" — a correctly
// generated value is valuable (e.g. for targeted advertising) whichever
// row it lands on, and some tuples are reconstructed far more often than
// the per-attribute averages suggest. This module scores each tuple:
// how many of its attribute values the adversary reproduces per round,
// aggregated over Monte-Carlo rounds, and cross-references Definition
// 2.1 (is the tuple identifiable?) so the rows that are both *unique*
// and *reconstructible* surface at the top.
#ifndef METALEAK_PRIVACY_TUPLE_RISK_H_
#define METALEAK_PRIVACY_TUPLE_RISK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "metadata/metadata_package.h"
#include "privacy/leakage.h"

namespace metaleak {

struct TupleRisk {
  size_t row = 0;
  /// Mean number of this tuple's attributes matched per round
  /// (Def 2.2/2.3 semantics per cell).
  double mean_matched_attributes = 0.0;
  /// Highest count observed in any round.
  size_t max_matched_attributes = 0;
  /// Fraction of rounds in which at least half the tuple's non-null
  /// attributes matched.
  double half_reconstructed_rate = 0.0;
  /// Definition 2.1: unique under some subset of bounded width.
  bool identifiable = false;
};

struct TupleRiskOptions {
  size_t rounds = 100;
  uint64_t seed = 77;
  LeakageOptions leakage;
  /// Quasi-identifier width for the identifiability cross-reference.
  size_t identifiability_max_width = 2;
};

struct TupleRiskReport {
  std::vector<TupleRisk> tuples;  // sorted, highest risk first

  /// Rows that are both identifiable and in the top `count` by mean
  /// matched attributes — the tuples to protect first.
  std::vector<size_t> TopIdentifiable(size_t count) const;

  /// Aligned text rendering of the `count` riskiest tuples.
  std::string ToString(size_t count = 10) const;
};

/// Runs the Monte-Carlo tuple-risk analysis: `rounds` synthetic
/// relations generated from `metadata`, scored cell-wise against `real`.
/// Encodes `real` and runs the encoded overload.
Result<TupleRiskReport> AnalyzeTupleRisk(
    const Relation& real, const MetadataPackage& metadata,
    const TupleRiskOptions& options = {});

/// The same analysis against an existing encoding (a service snapshot's):
/// every round is generated into a dense batch and scored by the fused
/// leakage scan's per-cell tables, so `real.source()` is never read. A
/// package the scan cannot score returns EncodedLeakageContext::Build's
/// Invalid.
Result<TupleRiskReport> AnalyzeTupleRisk(
    const EncodedRelation& real, const MetadataPackage& metadata,
    const TupleRiskOptions& options = {});

}  // namespace metaleak

#endif  // METALEAK_PRIVACY_TUPLE_RISK_H_
