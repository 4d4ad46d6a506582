// Monte-Carlo experiment runner: the engine behind Tables III and IV.
//
// For each generation method (random baseline, or generation driven by a
// single dependency class, mirroring the paper's table columns) the
// runner generates R_syn `rounds` times, evaluates index-aligned leakage
// against R_real each round, and averages ("the MSE is the mean error
// over many generation rounds to decrease the variance").
//
// The hot loop runs on the dictionary-encoded code path: the real
// relation is encoded once, every round writes dense codes/doubles into a
// per-thread EncodedBatch arena (GenerateEncoded, then ApplyCfdsEncoded
// for the CFD method), and the bound estimators stream its cells into
// Welford accumulators — no Relation is materialized per round. Only
// when the config sets use_value_path does a round decode its batch and
// score it with EvaluateLeakage instead; both reduce rounds to the same
// cells and share the same fold, so their Def 2.2/2.3 results are
// bit-identical. A package GenerateEncoded, BuildEncodedCfdPlan or the
// leakage scan cannot run comes back as their Invalid.
//
// The risk estimators are bound once per call and shared by every
// method the call runs: Bind() reads the real encoding, the package's
// schema and domains, the package and the leakage options, none of
// which depends on the method. RunAll therefore binds each estimator
// once for all its methods; Run and the replays bind once per call.
#ifndef METALEAK_PRIVACY_EXPERIMENT_H_
#define METALEAK_PRIVACY_EXPERIMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "metadata/metadata_package.h"
#include "privacy/leakage.h"
#include "privacy/risk_estimator.h"

namespace metaleak {

class GenerationContext;

/// Which generation process produces R_syn. Each non-random method uses
/// only dependencies of its class (plus names and domains).
enum class GenerationMethod {
  kRandom,
  kFd,
  kAfd,
  kNd,
  kOd,
  kDd,
  kOfd,
  /// Conditional FDs: random roots repaired to satisfy disclosed CFDs.
  kCfd,
  /// Everything the package discloses at once (all dependency classes +
  /// distributions when present) — the adversary of the attack simulator,
  /// as opposed to the single-class ablation columns above. Every
  /// attribute counts as covered.
  kFull,
};

std::string GenerationMethodToString(GenerationMethod method);

struct ExperimentConfig {
  size_t rounds = 100;
  uint64_t seed = 20240001;
  LeakageOptions leakage;
  /// Worker threads for the Monte-Carlo rounds (fanned out over the
  /// shared pool, common/parallel.h). Rounds are independent and get
  /// their seeds up front, so the result is identical for any thread
  /// count. 0 = use the global pool size (METALEAK_THREADS / hardware).
  size_t threads = 1;
  /// Score every round with EvaluateLeakage on the decoded batch (the
  /// boxed-Value Def 2.2/2.3 evaluators) instead of the fused scan; the
  /// engine's only boxed computation. Generation is the same either way.
  /// Parity tests and benchmarks flip this to compare the two scorers;
  /// results are bit-identical either way.
  bool use_value_path = false;
  /// Risk estimators to stream per round. nullptr = the default
  /// registry (Def 2.2/2.3 match-rate only — the pre-refactor
  /// behavior). The match-rate estimator must be first; estimators
  /// beyond it read the encoded batch, so a round scored on the decoded
  /// batch leaves them out (MethodResult marks them inactive). They
  /// draw no randomness, so swapping registries never perturbs the
  /// generated batches or the legacy match/MSE statistics.
  const RiskEstimatorRegistry* estimators = nullptr;
};

/// Averaged per-attribute outcome of one method.
struct MethodAttributeResult {
  size_t attribute = 0;
  std::string name;
  SemanticType semantic = SemanticType::kCategorical;
  /// False when no dependency of the method's class drives this attribute
  /// (the paper's NA cells). Always true for the random baseline.
  bool covered = true;
  /// Rows each round compares for this attribute (non-null real cells);
  /// the denominator of a mean match *rate*.
  size_t rows_compared = 0;
  double mean_matches = 0.0;
  double stddev_matches = 0.0;
  /// Continuous only.
  std::optional<double> mean_mse;
};

/// Welford-aggregated statistics of one measure column across rounds,
/// per attribute. The match-rate estimator's "matches"/"mse" columns
/// appear here too — the legacy MethodAttributeResult fields are filled
/// from the same accumulators, so the two views can never drift.
struct RiskMeasureStats {
  std::string estimator;
  std::string measure;
  /// False when the rounds were scored on the decoded batch
  /// (use_value_path), which fills only the match-rate estimator's
  /// columns; mean/stddev are zero-filled then.
  bool active = true;
  /// Per attribute: mean/stddev over the rounds where the cell was
  /// present, and how many rounds that was (0 = measure does not apply
  /// to the attribute, like MSE on a categorical column).
  std::vector<double> mean;
  std::vector<double> stddev;
  std::vector<size_t> rounds;

  Result<double> MeanFor(size_t attribute) const;
};

struct MethodResult {
  GenerationMethod method = GenerationMethod::kRandom;
  std::vector<MethodAttributeResult> attributes;
  /// One entry per measure column of every estimator in the registry
  /// the run used, in registry order.
  std::vector<RiskMeasureStats> measures;
  /// Seed of each round's derived RNG stream, in round order: round k of
  /// this run replays exactly as ExperimentEngine::ReplayRound(method,
  /// round_seeds[k]).
  std::vector<uint64_t> round_seeds;

  Result<MethodAttributeResult> ForAttribute(size_t attribute) const;
  /// The stats column for (estimator, measure); OutOfRange if the run's
  /// registry did not include it.
  Result<RiskMeasureStats> ForMeasure(const std::string& estimator,
                                      const std::string& measure) const;
};

/// One round's raw cells for one measure column — the replay-level
/// counterpart of RiskMeasureStats.
struct RoundMeasureValues {
  std::string estimator;
  std::string measure;
  /// One cell per attribute.
  std::vector<RiskMeasureCell> cells;
};

/// Runs experiment methods against one real relation. Encodes the real
/// relation once in the constructor; `real` and `metadata` must outlive
/// the engine. Run/RunAll/ReplayRound are const and thread-safe.
class ExperimentEngine {
 public:
  ExperimentEngine(const Relation& real, const MetadataPackage& metadata);

  /// Runs against a pre-built encoding instead of re-encoding the
  /// relation — the warm-snapshot path. Rows, columns and names come
  /// from the encoding; `encoded.source()` is read only by a round scored
  /// on the decoded batch (use_value_path), which returns Invalid when it
  /// is null. `encoded`, `metadata` and a source such a round reads must
  /// outlive the engine.
  /// `profile_measures`, when non-null, is
  /// ComputeProfileMeasures(encoded, metadata) already at hand (a
  /// snapshot's LeakageProfile::risk_measures); the info-theoretic
  /// estimator binds its entropy and conditional-entropy cells from it
  /// instead of recomputing them, and the engine fails with Invalid
  /// when it lacks a column or a cell. Borrowed like `metadata`.
  ExperimentEngine(
      const EncodedRelation& encoded, const MetadataPackage& metadata,
      const std::vector<RiskProfileMeasure>* profile_measures = nullptr);

  /// Runs one method. `metadata` must disclose all domains; dependency
  /// classes other than the method's are ignored.
  Result<MethodResult> Run(GenerationMethod method,
                           const ExperimentConfig& config = {}) const;

  /// Runs several methods under the same config (fresh derived RNG
  /// streams per method, so methods are independent but reproducible).
  /// Binds each estimator once and scores every method with it; the
  /// results equal Run on each method with its derived seed, bit for
  /// bit.
  Result<std::vector<MethodResult>> RunAll(
      const std::vector<GenerationMethod>& methods,
      const ExperimentConfig& config = {}) const;

  /// Re-executes a single recorded Monte-Carlo round (see
  /// MethodResult::round_seeds) and returns its full per-attribute
  /// report — the round's exact contribution to the recorded means.
  /// The report reads only the match-rate scan, so only the match-rate
  /// estimator is bound (the config's registry is still checked).
  Result<LeakageReport> ReplayRound(GenerationMethod method,
                                    uint64_t round_seed,
                                    const ExperimentConfig& config = {}) const;

  /// Re-executes a single recorded round and returns the raw cells of
  /// every measure column the config's registry emits for it — the
  /// estimator-level drill-down next to ReplayRound's Def 2.2/2.3
  /// report. A round scored on the decoded batch returns only the
  /// match-rate columns.
  Result<std::vector<RoundMeasureValues>> ReplayRoundMeasures(
      GenerationMethod method, uint64_t round_seed,
      const ExperimentConfig& config = {}) const;

 private:
  struct MethodPlan;
  struct BoundSet;
  Result<MethodPlan> PlanFor(GenerationMethod method) const;
  /// Binds every estimator of `registry` against the schema and domains
  /// of `layout`. Every method's GenerationContext carries the same ones
  /// (both come from the package alone), so any method's serves.
  Result<BoundSet> BindEstimators(const RiskEstimatorRegistry& registry,
                                  const GenerationContext& layout,
                                  const LeakageOptions& leakage) const;
  /// Runs one method against `*bound`, binding it first when empty.
  Result<MethodResult> RunMethodWith(GenerationMethod method,
                                     const ExperimentConfig& config,
                                     std::optional<BoundSet>* bound) const;
  /// Draws round `round_seed`'s batch: the plan's generation, then, for
  /// the CFD method, the chase.
  Status GenerateRound(const MethodPlan& plan, uint64_t round_seed,
                       EncodedBatch* batch) const;
  /// EvaluateLeakage of the decoded batch against the source relation;
  /// Invalid when the encoding has none.
  Result<LeakageReport> DecodedReport(const MethodPlan& plan,
                                      const EncodedBatch& batch,
                                      const LeakageOptions& leakage) const;
  /// The one round body: generates round `round_seed` and writes its
  /// total_measures x columns cells, from the bound estimators or, when
  /// `decoded`, the match-rate cells of DecodedReport.
  Status RunRound(const MethodPlan& plan, const BoundSet& bound,
                  bool decoded, uint64_t round_seed,
                  const LeakageOptions& leakage,
                  RiskMeasureCell* cells) const;

  /// The relation behind the encoding; null for an encoding without one.
  const Relation* real_;
  const MetadataPackage* metadata_;
  /// Set by the Relation constructor only; the EncodedRelation
  /// constructor borrows the caller's encoding instead.
  std::optional<EncodedRelation> owned_encoding_;
  const EncodedRelation* encoded_real_;
  const std::vector<RiskProfileMeasure>* profile_measures_ = nullptr;
};

/// One-shot wrapper around ExperimentEngine::Run.
Result<MethodResult> RunMethod(const Relation& real,
                               const MetadataPackage& metadata,
                               GenerationMethod method,
                               const ExperimentConfig& config = {});

/// One-shot wrapper around ExperimentEngine::RunAll.
Result<std::vector<MethodResult>> RunExperiment(
    const Relation& real, const MetadataPackage& metadata,
    const std::vector<GenerationMethod>& methods,
    const ExperimentConfig& config = {});

}  // namespace metaleak

#endif  // METALEAK_PRIVACY_EXPERIMENT_H_
