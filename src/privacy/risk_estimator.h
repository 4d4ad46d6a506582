// Pluggable risk estimators: the leakage-measurement abstraction.
//
// The paper measures leakage as Def 2.2/2.3 match-rate + MSE. ROADMAP
// item 4 adds two more families — information-theoretic measures
// (entropy / conditional entropy / real-vs-generated mutual information,
// after the "Information-theoretic Estimation of the Risk of Privacy
// Leaks" line of work) and a nearest-neighbor linkage adversary on
// continuous attributes (CVPL-style post-hoc linkage risk). Rather than
// hard-wiring each measure through the experiment runner, every measure
// is a RiskEstimator:
//
//   * Bind() resolves everything the per-round evaluation needs against
//     the real relation and the disclosed package once (mirroring
//     EncodedLeakageContext::Build), and returns a BoundRiskEstimator
//     that every generation method of the audit shares.
//   * Evaluate() scores one generated EncodedBatch into named
//     RiskMeasureCell columns — one cell per (measure, attribute).
//
// ExperimentEngine streams the cells through the same Welford fold it
// uses for Def 2.2/2.3 today: cells are produced per round in any
// thread order but folded in ascending round order, so every estimator
// inherits the library-wide bit-identity guarantees (threads-1 ==
// threads-8; and for MatchRateEstimator, code path == value path).
// Estimators draw no randomness of their own — a registry swap can
// never perturb the generated batches, which the golden-parity gates
// rely on.
#ifndef METALEAK_PRIVACY_RISK_ESTIMATOR_H_
#define METALEAK_PRIVACY_RISK_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/domain.h"
#include "data/encoded_batch.h"
#include "data/encoded_relation.h"
#include "data/schema.h"
#include "metadata/metadata_package.h"
#include "privacy/leakage.h"

namespace metaleak {

/// Identity of one measure column an estimator emits.
struct RiskMeasureSpec {
  /// Stable machine key, e.g. "matches", "mi_bits".
  std::string key;
  /// Human-readable label for reports, e.g. "MI(real; gen) [bits]".
  std::string label;
};

/// One (measure, attribute) accumulator cell of one round. `present`
/// distinguishes a measured 0.0 from "this measure does not apply to
/// this attribute" (e.g. MSE on a categorical column): absent cells are
/// skipped by the Welford fold, exactly like the has_mse flag the fused
/// scan used.
struct RiskMeasureCell {
  double value = 0.0;
  bool present = false;
};

/// One batch-independent measure column over a relation: the slice of
/// estimator output that depends only on R_real and its disclosed
/// metadata (entropy, conditional entropy). Cached in leakage profiles
/// / audit snapshots and diffed by LeakageDelta.
struct RiskProfileMeasure {
  std::string estimator;
  std::string measure;
  /// One cell per attribute.
  std::vector<RiskMeasureCell> cells;
};

/// Everything Bind() may resolve against. None of it depends on the
/// generation method: the schema and domains come from the disclosed
/// package alone, so one bind serves every method scored against the
/// package. `real` is borrowed for the bound estimator's lifetime; the
/// other pointers are read during Bind() only, and the bound estimator
/// copies what it keeps.
struct RiskContext {
  /// The encoded real relation R_real.
  const EncodedRelation* real = nullptr;
  /// Schema the generator emits (names match real's schema).
  const Schema* syn_schema = nullptr;
  /// Generation domains the batches are coded against.
  const std::vector<Domain>* domains = nullptr;
  /// The disclosed package (dependencies drive conditional entropy).
  const MetadataPackage* metadata = nullptr;
  LeakageOptions leakage;
  /// Optional: ComputeProfileMeasures(*real, *metadata) computed
  /// earlier, such as a snapshot's cached LeakageProfile::risk_measures.
  /// The info-theoretic estimator takes its batch-independent cells from
  /// it instead of recomputing them; nullptr means compute them.
  const std::vector<RiskProfileMeasure>* profile_measures = nullptr;
};

/// An estimator resolved against one real relation and disclosed
/// package. Evaluate() is const and thread-safe: rounds running on
/// different threads, for any generation method, share one bound
/// instance.
class BoundRiskEstimator {
 public:
  virtual ~BoundRiskEstimator() = default;

  /// Scores one generated batch. `cells` points at this estimator's
  /// block of num_measures x num_attributes cells, laid out
  /// cells[measure * num_attributes + attribute]; every cell must be
  /// (re)written, including `present`.
  virtual Status Evaluate(const EncodedBatch& batch,
                          RiskMeasureCell* cells) const = 0;

  /// The fused Def 2.2/2.3 context, when this estimator owns one
  /// (MatchRateEstimator only). The experiment engine reads it for the
  /// code-vs-value path decision and for per-round report replay;
  /// estimators without one return nullptr.
  virtual const EncodedLeakageContext* leakage_context() const {
    return nullptr;
  }
};

/// A named family of risk measures. Stateless and immutable; the
/// singleton instances below live for the process.
class RiskEstimator {
 public:
  virtual ~RiskEstimator() = default;

  virtual const std::string& name() const = 0;
  /// The measure columns every bound instance emits, in cell order.
  virtual const std::vector<RiskMeasureSpec>& measures() const = 0;

  /// Resolves the estimator against one real relation + disclosed
  /// package. Fails on structural mismatch (arity, names) — the Status
  /// EncodedLeakageContext::Build would produce — and on malformed
  /// ctx.profile_measures (see InfoTheoreticEstimator).
  virtual Result<std::unique_ptr<BoundRiskEstimator>> Bind(
      const RiskContext& ctx) const = 0;
};

/// Def 2.2/2.3 as an estimator: the pre-refactor fused match+MSE scan
/// re-expressed through the interface. Emits "matches" (always present)
/// and "mse" (continuous attributes), with cell values exactly equal to
/// the AttributeRoundStats the fused scan produced — the experiment
/// engine's fold over these cells is bit-identical to the pre-refactor
/// fold (the golden-parity suites enforce it at 1 and 8 threads).
class MatchRateEstimator : public RiskEstimator {
 public:
  /// Measure indices, part of the contract: the engine's value-path
  /// fallback fills these two columns directly from EvaluateLeakage.
  static constexpr size_t kMatchesIndex = 0;
  static constexpr size_t kMseIndex = 1;

  static const MatchRateEstimator& Instance();

  const std::string& name() const override;
  const std::vector<RiskMeasureSpec>& measures() const override;
  Result<std::unique_ptr<BoundRiskEstimator>> Bind(
      const RiskContext& ctx) const override;
};

/// Information-theoretic measures off dense-code histograms:
///
///   * "entropy_bits" — Shannon entropy of the attribute's disclosed
///     non-null marginal, read off the dictionary counts (batch
///     independent; folds to stddev 0).
///   * "cond_entropy_bits" — min over disclosed single-attribute-LHS
///     dependencies with this attribute as RHS of H(RHS | LHS), the
///     residual uncertainty the dependency leaves an adversary. NULL
///     participates as its own symbol. Absent when no such dependency
///     is disclosed; multi-attribute LHSs and CFDs are out of scope.
///
///     Both columns depend only on R_real and the package, so Bind()
///     takes them from ctx.profile_measures when one is passed and
///     from ComputeProfileMeasures otherwise — one code path for both.
///     A passed profile lacking either column, or holding a column
///     whose cell count is not the relation's arity, fails Bind() with
///     Invalid; it is never silently recomputed.
///   * "mi_bits" — per-round mutual information between the real column
///     and the generated column: joint over (real dictionary code,
///     generated domain code) pairs for code-stored columns (the
///     generated marginal is counted with the SIMD histogram kernels),
///     or over 64 equi-width generation-domain bins for real-stored
///     columns. The empirical "how much of R_real does R_syn carry"
///     measure the analytical models are calibrated against.
class InfoTheoreticEstimator : public RiskEstimator {
 public:
  static constexpr size_t kEntropyIndex = 0;
  static constexpr size_t kCondEntropyIndex = 1;
  static constexpr size_t kMiIndex = 2;
  /// Bins per side for the continuous (real-stored) MI estimate.
  static constexpr uint32_t kMiBins = 64;

  static const InfoTheoreticEstimator& Instance();

  const std::string& name() const override;
  const std::vector<RiskMeasureSpec>& measures() const override;
  Result<std::unique_ptr<BoundRiskEstimator>> Bind(
      const RiskContext& ctx) const override;
};

/// Nearest-neighbor linkage adversary on continuous attributes: links
/// every real value to its nearest generated value (any row — the
/// post-hoc linkage attack, strictly stronger than index-aligned
/// comparison).
///
///   * "nn_eps_matches" — real rows whose nearest generated value lands
///     within the Def 2.3 epsilon ball (same epsilon policy as the
///     match-rate scan).
///   * "nn_top1_hits" — real rows whose index-aligned generated value
///     ties the nearest-neighbor distance: the adversary's top-1 link
///     is the correct row (ties count — the strongest adversary).
///
/// Both cells are absent for categorical attributes.
class NnLinkageEstimator : public RiskEstimator {
 public:
  static constexpr size_t kEpsMatchesIndex = 0;
  static constexpr size_t kTop1HitsIndex = 1;

  static const NnLinkageEstimator& Instance();

  const std::string& name() const override;
  const std::vector<RiskMeasureSpec>& measures() const override;
  Result<std::unique_ptr<BoundRiskEstimator>> Bind(
      const RiskContext& ctx) const override;
};

/// An ordered set of estimators the experiment engine runs per round.
/// The match-rate estimator is always first — the engine relies on it
/// for the code-vs-value path decision and replay.
class RiskEstimatorRegistry {
 public:
  /// Match-rate only: the pre-refactor behavior, and the default when
  /// ExperimentConfig::estimators is unset.
  static const RiskEstimatorRegistry& Default();

  /// Match-rate + info-theoretic + NN-linkage: everything the library
  /// ships. The audit service and the VFL sweeps run this.
  static const RiskEstimatorRegistry& All();

  /// Custom registry; `estimators.front()` must be the match-rate
  /// estimator (checked by the engine).
  explicit RiskEstimatorRegistry(
      std::vector<const RiskEstimator*> estimators);

  const std::vector<const RiskEstimator*>& estimators() const {
    return estimators_;
  }

  /// Total measure columns across all estimators.
  size_t total_measures() const;

 private:
  std::vector<const RiskEstimator*> estimators_;
};

/// Computes every batch-independent measure the shipped estimators
/// expose for `real` under `metadata`: the entropy column straight off
/// the dictionaries, and the conditional-entropy column from the
/// disclosed dependency set (cells absent for attributes no disclosed
/// single-attribute-LHS dependency covers). Needs no domains — the
/// profile degrades gracefully, like expected-match columns do.
Result<std::vector<RiskProfileMeasure>> ComputeProfileMeasures(
    const EncodedRelation& real, const MetadataPackage& metadata);

}  // namespace metaleak

#endif  // METALEAK_PRIVACY_RISK_ESTIMATOR_H_
