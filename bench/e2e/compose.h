// The traced pass: the library's entry points re-composed from the public
// calls they make, with a span around each call into a layer.
//
//   TracedRunAudit  RunAudit
//   TracedRunAll    ExperimentEngine::RunAll on the code path
//   TracedSession   AuditService::Register / ApplyBatch / Audit (the warm
//                   audit is RunAuditProfiled)
//
// Each composition makes the same calls in the same order, on the same
// ParallelFor fan-out and with round seeds derived the same way, so its
// results are bit-identical to the untraced call; the benchmark checks
// that on every traced request. Only the code path is composed: a package
// the generators cannot encode, or a CFD method, is reported as an error.
#ifndef METALEAK_BENCH_E2E_COMPOSE_H_
#define METALEAK_BENCH_E2E_COMPOSE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "data/delta_relation.h"
#include "data/encoded_relation.h"
#include "data/relation.h"
#include "discovery/discovery_engine.h"
#include "discovery/revalidate.h"
#include "metadata/metadata_package.h"
#include "partition/pli_cache.h"
#include "partition/pli_maintenance.h"
#include "privacy/audit.h"
#include "privacy/experiment.h"
#include "privacy/leakage_delta.h"
#include "service/audit_service.h"
#include "service/relation_snapshot.h"

namespace metaleak::e2e {

/// What a composed audit produces: the parts of AuditResult the benchmark
/// compares against the untraced call, plus the layer counters.
struct ComposedAudit {
  MetadataPackage metadata;
  /// The discovery profile's search counters (AuditResult's copy).
  std::vector<ClassSearchStats> discovery_stats;
  double identifiable_fraction = 0.0;
  std::vector<MethodResult> method_results;
  /// PLI cache lookups the audit made.
  uint64_t pli_hits = 0;
  uint64_t pli_misses = 0;
};

/// RunAudit(relation, options), composed.
Result<ComposedAudit> TracedRunAudit(const Relation& relation,
                                     const AuditOptions& options);

/// ExperimentEngine(encoded, metadata).RunAll(methods, config), composed.
Result<std::vector<MethodResult>> TracedRunAll(
    const EncodedRelation& encoded, const MetadataPackage& metadata,
    const std::vector<GenerationMethod>& methods,
    const ExperimentConfig& config);

/// One AuditService session, composed: Register, then ApplyBatch and
/// Audit against the current state.
class TracedSession {
 public:
  static Result<std::unique_ptr<TracedSession>> Register(
      const Relation& relation, const ServiceOptions& options);

  TracedSession(const TracedSession&) = delete;
  TracedSession& operator=(const TracedSession&) = delete;

  Result<LeakageDelta> ApplyBatch(const RowBatch& batch);
  Result<ComposedAudit> Audit(const AuditOptions& options);

  uint64_t fingerprint() const;
  const DiscoveryReport& profile() const;

 private:
  // What Register builds; RelationSnapshot::FromRelation's parts, held
  // until the first batch publishes a real snapshot.
  struct Initial {
    std::unique_ptr<Relation> relation;
    std::unique_ptr<EncodedRelation> encoded;
    std::unique_ptr<PliCache> cache;
    DiscoveryReport profile;
    LeakageProfile leakage;
  };

  TracedSession() = default;

  PliCache& cache() const;
  const LeakageProfile& leakage() const;

  ServiceOptions options_;
  std::optional<Initial> initial_;
  std::shared_ptr<const RelationSnapshot> current_;
  std::optional<DeltaRelation> delta_;
  std::optional<PliMaintenance> plis_;
  DiscoveryMemo memo_;
};

}  // namespace metaleak::e2e

#endif  // METALEAK_BENCH_E2E_COMPOSE_H_
