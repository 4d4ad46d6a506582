// One-call privacy audit: profile -> reconstruct -> measure -> report.
//
// This is the library's top-level entry point for the question in the
// paper's title. Given a relation, it discovers the metadata a party
// would share, measures identifiability (Def 2.1), runs the
// generation-methods experiment (Defs 2.2/2.3), and renders a
// human-readable report with a per-attribute share/withhold verdict.
#ifndef METALEAK_PRIVACY_AUDIT_H_
#define METALEAK_PRIVACY_AUDIT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "partition/pli_cache.h"
#include "privacy/experiment.h"

namespace metaleak {

struct AuditOptions {
  DiscoveryOptions discovery;
  ExperimentConfig experiment;
  /// Generation methods compared against the random baseline. The
  /// baseline itself is always run and need not be listed.
  std::vector<GenerationMethod> methods = {
      GenerationMethod::kFd, GenerationMethod::kOd, GenerationMethod::kNd};
  /// Maximum quasi-identifier width for the identifiability scan.
  size_t identifiability_max_width = 2;
};

/// Per-attribute audit verdict.
struct AttributeAudit {
  size_t attribute = 0;
  std::string name;
  SemanticType semantic = SemanticType::kCategorical;
  /// Expected matches from names+domains alone (Section III-A model).
  double expected_random_matches = 0.0;
  /// Measured mean matches of the random baseline.
  double measured_random_matches = 0.0;
  /// Largest measured mean matches across the dependency methods that
  /// cover this attribute (== measured_random_matches when none do).
  double worst_dependency_matches = 0.0;
  /// True when some dependency method exceeded random beyond 3 sigma —
  /// i.e. the dependency itself is a leak channel for this attribute.
  bool dependency_adds_leakage = false;
  /// True when the domain alone already implies expected leakage
  /// (expected_random_matches >= 1).
  bool domain_leaks = false;
};

/// Cache counters surfaced in the markdown report. The PLI numbers are
/// the audit-attributable deltas of the cache it ran against; the
/// snapshot numbers are filled by the session layer (service/) when the
/// audit is served from a registered snapshot.
struct AuditCacheStats {
  uint64_t pli_hits = 0;
  uint64_t pli_misses = 0;
  uint64_t snapshot_hits = 0;
  uint64_t snapshot_misses = 0;
  uint64_t snapshot_evictions = 0;

  double PliHitRate() const {
    uint64_t total = pli_hits + pli_misses;
    if (total == 0) return 0.0;
    return static_cast<double>(pli_hits) / static_cast<double>(total);
  }
};

struct AuditResult {
  MetadataPackage metadata;
  /// Per-class lattice-search statistics from the discovery pass.
  std::vector<ClassSearchStats> discovery_stats;
  /// Fraction of tuples identifiable via subsets up to the configured
  /// width (Definition 2.1).
  double identifiable_fraction = 0.0;
  std::vector<MethodResult> method_results;  // [0] is the random baseline
  std::vector<AttributeAudit> attributes;
  /// Present when the audit ran against a caller-owned cache (the
  /// profiled path) — rendered as a "Cache observability" section.
  std::optional<AuditCacheStats> cache_stats;

  /// Markdown report (headers, dependency list, verdict table,
  /// recommendation).
  std::string ToMarkdown() const;
};

/// Runs the full audit.
Result<AuditResult> RunAudit(const Relation& relation,
                             const AuditOptions& options = {});

/// Audits an already-profiled snapshot — the warm path: no encoding, no
/// discovery. `cache` must be built over the snapshot's encoding (with
/// a live source Relation) and `profile` must be that snapshot's
/// discovery output; only identifiability, the Monte-Carlo experiment,
/// and the verdicts run here. `AuditOptions::discovery` is ignored.
/// `risk_measures`, when non-null, is the snapshot's cached
/// ComputeProfileMeasures output over `profile.metadata` (its
/// LeakageProfile::risk_measures): the info-theoretic estimator takes
/// its entropy cells from it rather than recomputing them, and a
/// profile missing a column or a cell fails the audit with Invalid.
Result<AuditResult> RunAuditProfiled(
    PliCache& cache, const DiscoveryReport& profile,
    const AuditOptions& options = {},
    const std::vector<RiskProfileMeasure>* risk_measures = nullptr);

}  // namespace metaleak

#endif  // METALEAK_PRIVACY_AUDIT_H_
