// AuditService: a long-lived metadata-audit service over the
// snapshot/delta split.
//
// The one-shot entry points (RunAudit, AnalyzeTupleRisk, RunExperiment)
// re-encode and re-profile the relation on every call. The service keeps
// that work alive instead: Register() encodes once, builds an immutable
// RelationSnapshot, and caches it by encoding fingerprint — a second
// registration of equal content is a snapshot-cache hit that skips
// encoding-downstream work entirely. Queries (Audit / MeasureLeakage /
// TupleRisk) run against the session's current snapshot and can be
// issued concurrently from many threads; they fan out over the shared
// thread pool and allocate per-request state only (the Monte-Carlo
// engines keep per-thread arenas internally).
//
// The mutable half: ApplyBatch() feeds a delete+insert batch through the
// session's DeltaRelation (append-capable dictionaries, side
// order-index), maintains the single-attribute CSR PLIs in place,
// publishes a canonical snapshot — bit-identical to a from-scratch
// rebuild — and re-profiles it, taking over each FD or DD failure whose
// witness rows survive the batch and still violate. Each batch returns
// the leakage delta: expected-match drift per attribute, attributes
// crossing the >= 1 leak threshold, dependencies the batch created or
// destroyed, and drift in every registered risk-estimator measure the
// snapshot profiles carry (entropy / conditional-entropy bounds).
#ifndef METALEAK_SERVICE_AUDIT_SERVICE_H_
#define METALEAK_SERVICE_AUDIT_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "data/delta_relation.h"
#include "data/relation.h"
#include "discovery/revalidate.h"
#include "partition/pli_maintenance.h"
#include "privacy/audit.h"
#include "privacy/experiment.h"
#include "privacy/leakage_delta.h"
#include "privacy/tuple_risk.h"
#include "service/relation_snapshot.h"

namespace metaleak {

struct ServiceOptions {
  /// Profile configuration shared by every snapshot the service builds.
  /// (AuditOptions::discovery is ignored by Audit() — the profile is
  /// precomputed at registration / batch time.)
  DiscoveryOptions discovery;
  /// Epsilon policy for the analytical leakage profiles and deltas.
  LeakageOptions leakage;
  /// Snapshot-cache capacity; least-recently-used entries are evicted
  /// beyond it. Sessions keep their current snapshot alive regardless.
  size_t max_cached_snapshots = 8;
};

struct ServiceStats {
  uint64_t snapshot_hits = 0;
  uint64_t snapshot_misses = 0;
  uint64_t snapshot_evictions = 0;
};

using SessionId = uint64_t;

class AuditService {
 public:
  explicit AuditService(ServiceOptions options = {});
  ~AuditService();

  AuditService(const AuditService&) = delete;
  AuditService& operator=(const AuditService&) = delete;

  /// Registers a relation and returns a session handle. The relation is
  /// copied (the caller's object need not outlive the service). Content
  /// already registered — equal encoding fingerprint — reuses the cached
  /// snapshot under the cache's single-flight discipline: concurrent
  /// registrations of equal content build once.
  Result<SessionId> Register(const Relation& relation);

  /// The session's current immutable snapshot. Safe to hold across
  /// ApplyBatch calls; it simply stays on the superseded version.
  Result<std::shared_ptr<const RelationSnapshot>> Snapshot(SessionId id);

  /// Applies one delete+insert batch, publishes a new canonical snapshot
  /// (bit-identical to a from-scratch rebuild of the post-batch rows),
  /// and returns what the batch changed about the leakage story.
  /// Batches against one session are serialized; queries keep running
  /// against the previous snapshot meanwhile. A batch that fails leaves
  /// the session as it was: the next batch's row ids still index the
  /// current snapshot.
  Result<LeakageDelta> ApplyBatch(SessionId id, const RowBatch& batch);

  /// Full audit of the current snapshot — the warm path of RunAudit: no
  /// re-encoding, no re-discovery, shared subset partitions, and the
  /// entropy cells read from the snapshot's leakage profile. Cache
  /// counters (PLI + snapshot) are filled into the result.
  Result<AuditResult> Audit(SessionId id, const AuditOptions& options = {});

  /// Monte-Carlo leakage of one generation method against the current
  /// snapshot (Defs 2.2/2.3, Tables III/IV semantics); like Audit, it
  /// reads the entropy cells from the snapshot's leakage profile.
  Result<MethodResult> MeasureLeakage(SessionId id, GenerationMethod method,
                                      const ExperimentConfig& config = {});

  /// Per-tuple reconstruction-risk attack against the current snapshot.
  Result<TupleRiskReport> TupleRisk(SessionId id,
                                    const TupleRiskOptions& options = {});

  ServiceStats stats() const;

 private:
  /// Snapshot-cache slot: `once` gives registration the same
  /// single-flight discipline PliCache uses per partition.
  struct CacheEntry {
    std::once_flag once;
    std::shared_ptr<const RelationSnapshot> snapshot;
    Status status = Status::OK();
    uint64_t last_used = 0;
  };

  struct Session {
    Session(std::shared_ptr<const RelationSnapshot> snap,
            std::unique_ptr<DiscoveryMemo> m)
        : current(std::move(snap)),
          delta(current->encoding()),
          plis(current->encoding()),
          memo(std::move(m)) {}

    std::mutex mutex;
    std::shared_ptr<const RelationSnapshot> current;
    DeltaRelation delta;
    PliMaintenance plis;
    std::unique_ptr<DiscoveryMemo> memo;
  };

  Result<std::shared_ptr<Session>> FindSession(SessionId id);
  /// The part of ApplyBatch after the delta took the batch: PLI upkeep,
  /// canonical publish and the new snapshot. Must hold session->mutex.
  Result<std::shared_ptr<const RelationSnapshot>> PublishBatch(
      Session* session, const BatchEffects& effects);
  Result<std::shared_ptr<const RelationSnapshot>> CurrentSnapshot(
      SessionId id);
  /// Inserts (or refreshes) a cache slot for an already-built snapshot
  /// and applies the LRU bound.
  void CacheSnapshot(std::shared_ptr<const RelationSnapshot> snapshot);
  /// Must hold cache_mutex_. Evicts LRU entries beyond capacity.
  void EvictLocked();

  ServiceOptions options_;

  std::mutex cache_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<CacheEntry>> cache_;
  uint64_t lru_tick_ = 0;

  std::mutex sessions_mutex_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  SessionId next_session_ = 1;

  std::atomic<uint64_t> snapshot_hits_{0};
  std::atomic<uint64_t> snapshot_misses_{0};
  std::atomic<uint64_t> snapshot_evictions_{0};
};

}  // namespace metaleak

#endif  // METALEAK_SERVICE_AUDIT_SERVICE_H_
