// Coalition leakage: Monte-Carlo Def 2.2/2.3 evaluation of a merged
// (joint) metadata view against the union of victim slices.
//
// A coalition of curious parties pools every MetadataPackage it received
// about the victims into one joint package (metadata/metadata_policy.h
// provides the merge). This module scores that joint view: the rounds
// stream through ExperimentEngine's encoded path with per-round seeds, so
// the summary is identical for any thread count and any recorded round
// replays in isolation.
#ifndef METALEAK_PRIVACY_COALITION_H_
#define METALEAK_PRIVACY_COALITION_H_

#include <cstdint>
#include <optional>

#include "common/result.h"
#include "data/relation.h"
#include "metadata/metadata_package.h"
#include "privacy/experiment.h"
#include "privacy/leakage.h"

namespace metaleak {

struct CoalitionLeakageSummary {
  size_t rounds = 0;
  /// Per-attribute streamed means under the full-package method,
  /// including the recorded per-round seeds for replay.
  MethodResult result;
  /// Aggregate Def 2.2/2.3 rates: mean matches summed over the attribute
  /// group divided by the group's compared-row total (0 when the group is
  /// empty).
  double overall_match_rate = 0.0;
  double categorical_match_rate = 0.0;
  double continuous_match_rate = 0.0;
  /// Mean of the per-attribute mean MSEs (continuous attributes only).
  std::optional<double> mean_mse;
  /// Mean over attributes of the info-theoretic estimator's mean
  /// real-vs-generated mutual information (bits). Unset when the config
  /// set use_value_path (the estimator reads the encoded batch, not the
  /// decoded one) or the registry omitted the estimator.
  std::optional<double> mean_mi_bits;
};

/// Runs `config.rounds` full-package reconstruction rounds of `joint`
/// against `victim_union` and aggregates. The joint package must disclose
/// every attribute domain (Invalid otherwise, as reconstruction below
/// names+domains is impossible).
Result<CoalitionLeakageSummary> EvaluateCoalitionLeakage(
    const MetadataPackage& joint, const Relation& victim_union,
    const ExperimentConfig& config = {});

/// Re-executes one recorded round (CoalitionLeakageSummary::result::
/// round_seeds) and returns its full per-attribute report — the round's
/// exact contribution to the streamed means.
Result<LeakageReport> ReplayCoalitionRound(const MetadataPackage& joint,
                                           const Relation& victim_union,
                                           uint64_t round_seed,
                                           const ExperimentConfig& config = {});

}  // namespace metaleak

#endif  // METALEAK_PRIVACY_COALITION_H_
